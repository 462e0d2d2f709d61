package core

// Streaming ingestion — the O(batch) refresh path of online serving.
//
// A fitted Model owns a mutable sufficient-statistics store
// (internal/ingest). When an answer batch lands, Ingest decodes it against
// the model's worker table, folds it into the store's groups in place and
// marks the touched cells dirty; RefreshIncremental then re-runs the E-step
// on exactly the dirty posteriors before a short warm EM polish from the
// previous optimum. Unlike InferWarm — which re-decodes, re-sorts and
// re-groups the whole log per refresh — decoding and merging are
// proportional to the batch, not the log.
//
// Column standardisation stays exact: the model keeps each continuous
// column's Welford accumulator (the same left fold stats.MeanVariance
// computes), so a batch extends the constants bit-identically to a cold
// recompute over the grown log. Groups keep the moments of the raw values
// and the EM loops standardize them with the current constants, so when a
// column's constants move no stored value changes: only the column's
// answered cells join the dirty set, because their continuous posteriors
// were computed under the old z-scale.

import (
	"errors"
	"fmt"
	"math"

	"tcrowd/internal/tabular"
)

// DefaultPolishIter is the EM iteration budget of RefreshIncremental when
// the caller does not specify one. A streamed batch perturbs a converged
// fit only slightly, so the online-EM-style single full iteration (M-step
// then E-step) re-tracks the optimum; across a stream of batches the
// polish iterations compound, exactly like online EM. Callers needing
// convergence-grade estimates (the platform's requester-facing inference)
// pass a full budget instead and let the tolerance stop early.
const DefaultPolishIter = 1

// Amortized polish cadence constants (see RefreshIncremental): a
// default-budget refresh defers the full EM polish until the unpolished
// ingest backlog reaches max(minPolishBacklog, DefaultPolishFrac * log size).
const (
	// minPolishBacklog keeps small logs responsive: below it a deferral
	// would save nothing, so every refresh polishes.
	minPolishBacklog = 32
	// DefaultPolishFrac is the backlog fraction: a full polish
	// roughly every 5% log growth keeps amortized polish cost per answer
	// constant while the posteriors between polishes stay within the
	// dirty-cell E-step's reach.
	DefaultPolishFrac = 0.05
)

// ErrLogMismatch is returned by IngestFrom when the given log is not the
// model's source log: the model cannot know which suffix is new, so the
// caller must fall back to a (warm) rebuild.
var ErrLogMismatch = errors.New("core: log is not the model's source log")

// colAcc is a running Welford accumulator over a column's raw numeric
// answers. Extending it answer by answer performs exactly the fold
// stats.MeanVariance performs over the full slice, which is what keeps
// streaming standardisation constants bit-identical to a cold fit's.
type colAcc struct {
	n    int
	mean float64
	m2   float64
}

func (c *colAcc) add(x float64) {
	c.n++
	d := x - c.mean
	c.mean += d / float64(c.n)
	c.m2 += d * (x - c.mean)
}

func (c *colAcc) variance() float64 {
	if c.n == 0 {
		return 0
	}
	return c.m2 / float64(c.n)
}

// setColConstants derives ColMean/ColStd for column j from its accumulator,
// with the cold path's exact rules (std 1 for categorical, empty and
// near-constant columns).
func (m *Model) setColConstants(j int) {
	m.ColStd[j] = 1
	if m.Table.Schema.Columns[j].Type == tabular.Continuous && m.colAcc[j].n > 0 {
		m.ColMean[j] = m.colAcc[j].mean
		if v := m.colAcc[j].variance(); v > 1e-12 {
			m.ColStd[j] = math.Sqrt(v)
		}
	}
}

// CanIngestFrom reports whether the model can incrementally consume new
// answers from log: it must be the very log object the model was fitted on
// (tabular.AnswerLog is append-only, so pointer identity guarantees the
// model's consumed prefix is intact) over the same table, and must not have
// shrunk. When false, callers should rebuild via InferWarm instead.
func (m *Model) CanIngestFrom(tbl *tabular.Table, log *tabular.AnswerLog) bool {
	return m != nil && tbl == m.Table && log == m.Log && log.Len() >= m.decoded
}

// IngestFrom ingests every answer appended to the model's source log since
// the last sync (the cold fit or the previous IngestFrom) and returns how
// many raw answers were consumed. The caller still owns running
// RefreshIncremental afterwards.
func (m *Model) IngestFrom(log *tabular.AnswerLog) (int, error) {
	if log != m.Log {
		return 0, ErrLogMismatch
	}
	if log.Len() < m.decoded {
		return 0, fmt.Errorf("core: source log shrank to %d answers (model consumed %d)", log.Len(), m.decoded)
	}
	batch := log.All()[m.decoded:]
	if len(batch) == 0 {
		return 0, nil
	}
	if err := m.Ingest(batch); err != nil {
		return 0, err
	}
	// Only the source-log sync advances the cursor: Ingest may also be fed
	// external batches (the platform passes explicit deltas), which must
	// not make IngestFrom skip source answers it never saw.
	m.decoded += len(batch)
	return len(batch), nil
}

// Ingest decodes a raw answer batch and folds it into the model's group
// store in place, marking the touched cells dirty for the next
// RefreshIncremental. The work — validation, constant updates, decode,
// merge — is O(batch) plus a linear shift of the store's tail (and a pass
// over the cells when a column's constants move); the clean prefix is
// never re-sorted. First-seen workers are registered with the initial variance;
// cells answered for the first time get posteriors allocated.
//
// The batch is validated before any state changes, so an error leaves the
// model untouched. Posteriors and estimates are stale between Ingest and
// the following RefreshIncremental. Ingest does not advance the
// source-log cursor — callers feeding explicit external batches own their
// own bookkeeping; use IngestFrom to stay in sync with the model's source
// log.
func (m *Model) Ingest(batch []tabular.Answer) error {
	if len(batch) == 0 {
		return nil
	}
	for _, a := range batch {
		if err := m.checkAnswer(a); err != nil {
			return err
		}
	}

	// Fold the batch's numeric values into the column accumulators and
	// refresh the standardisation constants of the touched continuous
	// columns.
	scr := &m.scr
	mm := m.Table.NumCols()
	if scr.colChanged == nil {
		scr.colChanged = make([]bool, mm)
	}
	changed := false
	for _, a := range batch {
		if a.Value.Kind == tabular.Number && usableNumber(a.Value.X) {
			m.colAcc[a.Cell.Col].add(a.Value.X)
			scr.colChanged[a.Cell.Col] = true
		}
	}
	for j := 0; j < mm; j++ {
		if !scr.colChanged[j] {
			continue
		}
		oldMean, oldStd := m.ColMean[j], m.ColStd[j]
		m.setColConstants(j)
		if m.ColMean[j] == oldMean && m.ColStd[j] == oldStd {
			scr.colChanged[j] = false // constants stable: nothing to redo
		} else {
			changed = true
		}
	}
	if changed {
		// Dirty the answered cells of the shifted columns: their
		// continuous posteriors were computed under the old z-scale.
		for i := 0; i < m.Table.NumRows(); i++ {
			for j := 0; j < mm; j++ {
				if scr.colChanged[j] && m.Answered[i][j] {
					m.ilog.MarkDirty(m.ilog.Key(i, j))
				}
			}
		}
	}
	for j := 0; j < mm; j++ {
		scr.colChanged[j] = false
	}

	// Decode (mode filter, worker registration) into the reusable staging
	// buffer and merge.
	scr.dec = scr.dec[:0]
	for _, a := range batch {
		oa, use, err := m.decodeAnswer(a)
		if err != nil {
			return err // unreachable: batch was pre-validated
		}
		if !use {
			continue
		}
		scr.dec = append(scr.dec, oa)
		i, j := a.Cell.Row, a.Cell.Col
		if !m.Answered[i][j] {
			m.Answered[i][j] = true
			if col := m.Table.Schema.Columns[j]; col.Type == tabular.Categorical {
				// A newly answered categorical cell gets its own small
				// posterior slice; the cold fit's arena prefix is shared
				// state and never reallocated.
				m.CatPost[i][j] = make([]float64, col.NumLabels())
			}
		}
	}
	if len(scr.dec) > 0 {
		m.ilog.Append(scr.dec)
		m.pendingPolish += len(scr.dec)
	}
	// Worker medians may have shifted (new workers, at least): drop the
	// cache; RefreshIncremental refreezes it.
	m.medianPhi = 0
	return nil
}

// RefreshStats reports what one RefreshIncremental did, so callers can
// update downstream state (estimates caches, assignment error models)
// incrementally instead of rebuilding it.
type RefreshStats struct {
	// Cells are the cell keys (row*cols + col) whose posteriors were
	// recomputed this refresh — the ingest dirty set, captured before it
	// was cleared. The slice is model-owned scratch, valid until the next
	// RefreshIncremental.
	Cells []int
	// Polished reports whether the full EM polish ran. When false, only
	// the Cells posteriors (and therefore only those cells' estimates)
	// changed; the global parameters are untouched and the polish debt
	// carries over to a later refresh.
	Polished bool
	// Pending is the number of ingested answers still awaiting a polish.
	Pending int
}

// RefreshIncremental reconverges the model after one or more Ingest calls:
// the E-step runs on exactly the dirty cells' posteriors (new answers,
// newly answered cells, columns whose constants moved), then a warm EM
// polish — at most maxIter iterations — re-runs full EM from the previous
// optimum until the model's parameter tolerance fires. Iterations and
// Converged report the polish.
//
// Amortized polish cadence: with maxIter <= 0 (the serving default) the
// full polish is deferred until enough new answers have accumulated —
// max(minPolishBacklog, DefaultPolishFrac·log size) — and then runs for
// DefaultPolishIter iterations. In between, a refresh is dirty-cell E-step
// only, so its cost is O(batch) regardless of log size while the amortized
// polish cost per answer stays constant (online EM with a batch schedule
// proportional to the data seen, cf. Liang & Klein's stepwise EM). An
// explicit maxIter > 0 always polishes now — callers needing
// convergence-grade estimates (the platform's requester-facing inference,
// the equivalence tests) keep their full budget semantics.
//
// Equivalence: run with a tight Options.Tol (and matching MStepGradTol),
// the polish converges to the same fixed point a cold Infer over the grown
// log reaches — the equivalence property test pins estimates to 1e-9.
func (m *Model) RefreshIncremental(maxIter int) RefreshStats {
	scr := &m.scr
	scr.refreshCells = append(scr.refreshCells[:0], m.ilog.DirtyKeys()...)
	st := RefreshStats{Cells: scr.refreshCells}
	for _, key := range st.Cells {
		m.eStepCells(key, key+1)
	}
	m.ilog.ClearDirty()
	if maxIter <= 0 {
		if m.pendingPolish < m.polishBacklog() {
			// Defer the O(log) polish: report zero EM iterations so the
			// deferral is observable, keep the debt.
			m.Iterations, m.Converged = 0, false
			st.Pending = m.pendingPolish
			m.medianPhi = 0
			m.medianPhi = m.MedianPhi()
			return st
		}
		maxIter = DefaultPolishIter
	}
	m.emLoop(maxIter)
	m.pendingPolish = 0
	st.Polished = true
	m.medianPhi = 0
	m.medianPhi = m.MedianPhi()
	return st
}

// polishBacklog is the deferred-polish trigger: the number of unpolished
// ingested answers at which a default-budget refresh pays the full EM
// sweep.
func (m *Model) polishBacklog() int {
	t := int(DefaultPolishFrac * float64(m.ilog.Len()))
	if t < minPolishBacklog {
		t = minPolishBacklog
	}
	return t
}
