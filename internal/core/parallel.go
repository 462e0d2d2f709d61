package core

import (
	"runtime"

	"tcrowd/internal/pool"
)

// Parallel EM — the "acceleration of truth inference ... by parallel
// computation" the paper lists as future work (Sec. 7). Both EM halves
// decompose cleanly:
//
//   - the E-step treats cells independently given the parameters, so cell
//     ranges shard across workers;
//   - the M-step objective and gradient are sums over sufficient-statistics
//     groups, so group ranges shard and per-shard partials reduce in shard
//     order.
//
// Work runs on the persistent internal/pool goroutine pool (no per-call
// goroutine spawning) with deterministic pool.ChunkBounds sharding, so a
// given worker count always produces the same floating-point reduction
// order. Parallelism is opt-in (Options.Parallelism > 1): the sequential
// path stays allocation-free for the small online refreshes, while
// full-table inference on large logs gets near-linear speedup.

// eStepParallel is the sharded version of eStep: contiguous cell-key
// ranges per shard, posteriors written in place (disjoint cells, no
// synchronisation needed beyond the pool's completion barrier).
func (m *Model) eStepParallel(workers int) {
	total := m.Table.NumRows() * m.Table.NumCols()
	pool.Run(workers, func(shard int) {
		lo, hi := pool.ChunkBounds(total, workers, shard)
		m.eStepCells(lo, hi)
	})
}

// AutoParallelMinAnswers is the decoded-answer count above which inference
// parallelises automatically when Options.Parallelism is 0 (auto). Below
// it the sharding overhead outweighs the fan-out win and the serial path's
// zero-allocation property matters more; above it servers should not
// silently run serial (set Parallelism to 1 to opt out explicitly).
const AutoParallelMinAnswers = 16384

// effectiveParallelism resolves the Parallelism option: 0 auto-enables at
// GOMAXPROCS once the log is AutoParallelMinAnswers answers or larger,
// 1 (or negative) forces serial, larger values are capped at GOMAXPROCS.
func (m *Model) effectiveParallelism() int {
	p := m.Opts.Parallelism
	if p == 0 && m.ilog.Len() >= AutoParallelMinAnswers {
		p = runtime.GOMAXPROCS(0)
	}
	if p <= 1 {
		return 1
	}
	if procs := runtime.GOMAXPROCS(0); p > procs {
		p = procs
	}
	return p
}
