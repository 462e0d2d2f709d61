package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"tcrowd/internal/simulate"
	"tcrowd/internal/stats"
	"tcrowd/internal/tabular"
)

// TestRefreshIncrementalMatchesRebuild is the streaming equivalence
// property: for random logs split into arbitrary batch sequences,
// Ingest + RefreshIncremental(k) after every batch is EXACTLY — bit for
// bit, far inside the 1e-9 target — the model that InferWarm produces by
// re-decoding, re-sorting and re-grouping the grown log from scratch with
// the same EM budget. The streamed store (in-place group fold and splice,
// constant updates, shifted-column dirtying, dirty-cell E-step) therefore
// introduces zero numerical deviation; the only approximation in the
// streaming path is EM convergence itself, which the companion cold test
// bounds.
func TestRefreshIncrementalMatchesRebuild(t *testing.T) {
	opts := Options{MaxIter: 40, Tol: 1e-9, MStepIter: 25}
	splits := [][]int{
		{1, 49, 10, 40},    // mixed tiny/large batches
		{25, 25, 25, 25},   // uniform
		{97, 1, 1, 1},      // one bulk batch then single answers
		{5, 31, 1, 44, 13}, // ragged
	}
	for trial, split := range splits {
		seed := int64(3100 + trial*11)
		ds, full := equivDataset(seed, 25)
		all := full.All()
		prefix := len(all) / 2

		prefLog := tabular.NewAnswerLog()
		prefLog.AddAll(all[:prefix])
		m, err := Infer(ds.Table, prefLog, opts)
		if err != nil {
			t.Fatal(err)
		}
		// The rebuild reference starts from an identical prefix fit and
		// replays the same batches through the full rebuild path.
		ref, err := Infer(ds.Table, prefLog, opts)
		if err != nil {
			t.Fatal(err)
		}
		refLog := prefLog.Clone()

		at, si := prefix, 0
		for at < len(all) {
			n := split[si%len(split)]
			si++
			if at+n > len(all) {
				n = len(all) - at
			}
			batch := all[at : at+n]
			at += n

			if err := m.Ingest(batch); err != nil {
				t.Fatal(err)
			}
			m.RefreshIncremental(12)

			refLog.AddAll(batch)
			wopts := opts
			wopts.MaxIter = 12 // the polish budget
			ref, err = InferWarm(ref, ds.Table, refLog, wopts)
			if err != nil {
				t.Fatal(err)
			}
			assertBitwiseFit(t, trial, ref, m)
		}
	}
}

// FuzzIngestSplits extends the streaming equivalence property to logs in
// which workers answer a cell more than once, so groups hold several
// answers (and one worker several groups per categorical cell): Ingest +
// RefreshIncremental(k) after every batch must stay bitwise the InferWarm
// rebuild of the grown log. The inputs pick the table and crowd (seed),
// the batch split (one batch of 1 + size%16 answers per byte; the first is
// the cold fit) and how often an answer repeats an earlier (cell, worker)
// pair (repeat/256). Continuous answers move their column's constants on
// almost every batch.
func FuzzIngestSplits(f *testing.F) {
	f.Add(int64(1), []byte{9, 7, 1, 12, 5, 15, 3}, uint8(150)) // duplicate-heavy
	f.Add(int64(2), []byte{15, 0, 0, 4, 9, 2}, uint8(96))
	f.Add(int64(3), []byte{8, 8, 8}, uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, sizes []byte, repeat uint8) {
		if len(sizes) < 2 || len(sizes) > 12 {
			return
		}
		ds := simulate.Generate(stats.NewRNG(seed), simulate.TableConfig{
			Rows: 6, Cols: 4, CatRatio: 0.5, MaxLabels: 3,
			Population: simulate.PopulationConfig{N: 5},
		})
		crowd := simulate.NewCrowd(ds, seed+1)
		rng := stats.NewRNG(seed + 2)
		var all []tabular.Answer
		for _, size := range sizes {
			for n := 1 + int(size%16); n > 0; n-- {
				w := &ds.Workers[rng.Intn(len(ds.Workers))]
				c := tabular.Cell{Row: rng.Intn(6), Col: rng.Intn(4)}
				if len(all) > 0 && rng.Intn(256) < int(repeat) {
					prev := all[rng.Intn(len(all))]
					w, c = ds.WorkerByID(prev.Worker), prev.Cell
				}
				all = append(all, crowd.Answer(w, c))
			}
		}

		opts := Options{MaxIter: 6, Tol: 1e-9, MStepIter: 8}
		at := 1 + int(sizes[0]%16)
		prefLog := tabular.NewAnswerLog()
		prefLog.AddAll(all[:at])
		m, err := Infer(ds.Table, prefLog, opts)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := Infer(ds.Table, prefLog, opts)
		if err != nil {
			t.Fatal(err)
		}
		refLog := prefLog.Clone()
		wopts := opts
		wopts.MaxIter = 3 // the polish budget
		for b, size := range sizes[1:] {
			batch := all[at : at+1+int(size%16)]
			at += len(batch)
			if err := m.Ingest(batch); err != nil {
				t.Fatal(err)
			}
			m.RefreshIncremental(wopts.MaxIter)
			refLog.AddAll(batch)
			if ref, err = InferWarm(ref, ds.Table, refLog, wopts); err != nil {
				t.Fatal(err)
			}
			assertBitwiseFit(t, b, ref, m)
		}
	})
}

// assertBitwiseFit requires two fits to agree exactly: parameters,
// posteriors, iteration counts and estimates.
func assertBitwiseFit(t *testing.T, trial int, want, got *Model) {
	t.Helper()
	if want.Iterations != got.Iterations || want.Converged != got.Converged {
		t.Fatalf("trial %d: EM trajectory diverged: (%d, %v) vs (%d, %v)",
			trial, want.Iterations, want.Converged, got.Iterations, got.Converged)
	}
	chk := func(name string, xs, ys []float64) {
		t.Helper()
		if len(xs) != len(ys) {
			t.Fatalf("trial %d: %s length %d vs %d", trial, name, len(xs), len(ys))
		}
		for i := range xs {
			if xs[i] != ys[i] {
				t.Fatalf("trial %d: %s[%d]: %v vs %v (delta %.3g)",
					trial, name, i, xs[i], ys[i], math.Abs(xs[i]-ys[i]))
			}
		}
	}
	chk("alpha", want.Alpha, got.Alpha)
	chk("beta", want.Beta, got.Beta)
	chk("phi", want.Phi, got.Phi)
	for i := 0; i < want.Table.NumRows(); i++ {
		for j := 0; j < want.Table.NumCols(); j++ {
			if wp, gp := want.CatPost[i][j], got.CatPost[i][j]; wp != nil || gp != nil {
				chk(fmt.Sprintf("catpost(%d,%d)", i, j), wp, gp)
			}
			if want.ContMu[i][j] != got.ContMu[i][j] || want.ContVar[i][j] != got.ContVar[i][j] {
				t.Fatalf("trial %d: continuous posterior diverged at (%d,%d)", trial, i, j)
			}
		}
	}
}

// TestRefreshIncrementalMatchesCold bounds the remaining approximation of
// the streaming path — EM convergence itself: a streamed run polished to
// convergence and a cold Infer over the full log take different routes to
// the shared optimum, and independently converged float64 EM runs agree
// only to the line-search noise floor (~1e-8 on parameters; see the
// rebuild test for the exact, bitwise streaming guarantee). Labels must
// match exactly; continuous estimates to 1e-6 relative with ~20x measured
// margin.
func TestRefreshIncrementalMatchesCold(t *testing.T) {
	opts := Options{MaxIter: 600, Tol: 1e-12, MStepIter: 40, MStepGradTol: 1e-12}
	split := []int{3, 17, 1, 42, 9}
	for trial, seed := range []int64{3100, 3105, 3110} {
		ds, full := equivDataset(seed, 20)
		all := full.All()

		cold, err := Infer(ds.Table, full, opts)
		if err != nil {
			t.Fatal(err)
		}

		prefix := len(all) / 2
		prefLog := tabular.NewAnswerLog()
		prefLog.AddAll(all[:prefix])
		m, err := Infer(ds.Table, prefLog, opts)
		if err != nil {
			t.Fatal(err)
		}
		at, si := prefix, 0
		for at < len(all) {
			n := split[si%len(split)]
			si++
			if at+n > len(all) {
				n = len(all) - at
			}
			if err := m.Ingest(all[at : at+n]); err != nil {
				t.Fatal(err)
			}
			at += n
			m.RefreshIncremental(opts.MaxIter)
		}
		if !cold.Converged || !m.Converged {
			t.Fatalf("trial %d: run did not converge (cold %v, streamed %v)", trial, cold.Converged, m.Converged)
		}

		we, ge := cold.Estimates(), m.Estimates()
		for i := 0; i < ds.Table.NumRows(); i++ {
			for j := 0; j < ds.Table.NumCols(); j++ {
				a, b := we[i][j], ge[i][j]
				if a.Kind != b.Kind {
					t.Fatalf("trial %d: estimate kind diverged at (%d,%d)", trial, i, j)
				}
				if a.Kind == tabular.Label && a.L != b.L {
					t.Fatalf("trial %d: label diverged at (%d,%d): %d vs %d", trial, i, j, a.L, b.L)
				}
				if a.Kind == tabular.Number && math.Abs(a.X-b.X) > 1e-6*(1+math.Abs(a.X)) {
					t.Fatalf("trial %d: number diverged at (%d,%d): %v vs %v (delta %.3g)",
						trial, i, j, a.X, b.X, math.Abs(a.X-b.X))
				}
			}
		}
	}
}

// TestIngestFromSyncsSourceLog covers the source-log sync path: growing the
// fitted log in place and calling IngestFrom consumes exactly the suffix;
// foreign logs are rejected with ErrLogMismatch.
func TestIngestFromSyncsSourceLog(t *testing.T) {
	ds, log := equivDataset(3200, 25)
	m, err := Infer(ds.Table, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !m.CanIngestFrom(ds.Table, log) {
		t.Fatal("model cannot ingest from its own source log")
	}

	before := m.NumAnswersUsed()
	simulate.NewCrowd(ds, 3201).AppendBatch(log, 40)
	n, err := m.IngestFrom(log)
	if err != nil {
		t.Fatal(err)
	}
	if n != 40 {
		t.Fatalf("IngestFrom consumed %d answers, want 40", n)
	}
	if m.NumAnswersUsed() != before+40 {
		t.Fatalf("store grew by %d answers, want 40", m.NumAnswersUsed()-before)
	}
	// A default-budget refresh below the polish backlog defers the EM
	// sweep: dirty-cell E-step only, zero reported iterations, debt kept.
	rs := m.RefreshIncremental(0)
	if rs.Polished || m.Iterations != 0 {
		t.Fatalf("refresh below backlog polished (stats %+v, iterations %d)", rs, m.Iterations)
	}
	if rs.Pending != 40 {
		t.Fatalf("refresh reported %d pending answers, want 40", rs.Pending)
	}
	if len(rs.Cells) == 0 {
		t.Fatal("refresh reported no refreshed cells")
	}
	// Growing the backlog past max(minPolishBacklog, frac*log) triggers the
	// deferred polish on the next default-budget refresh.
	simulate.NewCrowd(ds, 3202).AppendBatch(log, 2*minPolishBacklog)
	if _, err := m.IngestFrom(log); err != nil {
		t.Fatal(err)
	}
	rs = m.RefreshIncremental(0)
	if !rs.Polished || m.Iterations == 0 {
		t.Fatalf("refresh past backlog did not polish (stats %+v, iterations %d)", rs, m.Iterations)
	}
	// An explicit budget always polishes now, regardless of backlog.
	simulate.NewCrowd(ds, 3203).AppendBatch(log, 5)
	if _, err := m.IngestFrom(log); err != nil {
		t.Fatal(err)
	}
	if rs = m.RefreshIncremental(5); !rs.Polished || m.Iterations == 0 {
		t.Fatalf("explicit-budget refresh did not polish (stats %+v)", rs)
	}
	// Sync is idempotent once caught up.
	if n, err := m.IngestFrom(log); err != nil || n != 0 {
		t.Fatalf("caught-up IngestFrom = (%d, %v), want (0, nil)", n, err)
	}

	if m.CanIngestFrom(ds.Table, log.Clone()) {
		t.Fatal("CanIngestFrom accepted a foreign log")
	}
	if _, err := m.IngestFrom(log.Clone()); err != ErrLogMismatch {
		t.Fatalf("IngestFrom on a foreign log = %v, want ErrLogMismatch", err)
	}
}

// TestIngestExternalBatchKeepsSourceCursor pins the cursor contract: Ingest
// of an explicit external batch must not advance the source-log cursor, so
// a later IngestFrom still consumes every source answer.
func TestIngestExternalBatchKeepsSourceCursor(t *testing.T) {
	ds, log := equivDataset(3250, 20)
	m, err := Infer(ds.Table, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// An external batch (not appended to the source log).
	external := tabular.NewAnswerLog()
	simulate.NewCrowd(ds, 3251).AppendBatch(external, 15)
	if err := m.Ingest(external.All()); err != nil {
		t.Fatal(err)
	}
	// The source log grows too; IngestFrom must still see all of it.
	simulate.NewCrowd(ds, 3252).AppendBatch(log, 20)
	n, err := m.IngestFrom(log)
	if err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Fatalf("IngestFrom consumed %d source answers, want 20 (external ingest desynced the cursor)", n)
	}
}

// TestIngestNewWorkerAndCell exercises structural growth: a batch from an
// unseen worker on a previously unanswered cell registers the worker at the
// initial variance and allocates the cell's posterior.
func TestIngestNewWorkerAndCell(t *testing.T) {
	ds := simulate.Generate(stats.NewRNG(3300), simulate.TableConfig{
		Rows: 10, Cols: 4, CatRatio: 0.5,
		Population: simulate.PopulationConfig{N: 8},
	})
	// Leave row 9 unanswered by fitting on rows 0-8 only.
	full := simulate.NewCrowd(ds, 3301).FixedAssignment(3)
	part := tabular.NewAnswerLog()
	for _, a := range full.All() {
		if a.Cell.Row < 9 {
			part.Add(a)
		}
	}
	m, err := Infer(ds.Table, part, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Answered[9][0] {
		t.Fatal("test premise broken: row 9 already answered")
	}

	var batch []tabular.Answer
	for j := 0; j < ds.Table.NumCols(); j++ {
		v := tabular.LabelValue(0)
		if ds.Table.Schema.Columns[j].Type == tabular.Continuous {
			v = tabular.NumberValue(ds.Table.Truth[9][j].X)
		}
		batch = append(batch, tabular.Answer{
			Worker: "fresh-worker", Cell: tabular.Cell{Row: 9, Col: j}, Value: v,
		})
	}
	if err := m.Ingest(batch); err != nil {
		t.Fatal(err)
	}
	m.RefreshIncremental(0)

	if _, ok := m.workerIdx["fresh-worker"]; !ok {
		t.Fatal("new worker not registered")
	}
	if got := len(m.Phi); got != len(m.WorkerIDs) {
		t.Fatalf("phi vector (%d) out of sync with workers (%d)", got, len(m.WorkerIDs))
	}
	est := m.Estimates()
	for j := 0; j < ds.Table.NumCols(); j++ {
		if !m.Answered[9][j] {
			t.Fatalf("cell (9,%d) not marked answered", j)
		}
		if est[9][j].IsNone() {
			t.Fatalf("cell (9,%d) has no estimate after ingest", j)
		}
	}
}

// TestIngestRejectsBadBatchAtomically pins the validate-first contract: an
// invalid batch errors without mutating any model state.
func TestIngestRejectsBadBatchAtomically(t *testing.T) {
	ds, log := equivDataset(3400, 15)
	m, err := Infer(ds.Table, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := m.NumAnswersUsed()
	workers := len(m.WorkerIDs)
	bad := []tabular.Answer{
		{Worker: "w", Cell: tabular.Cell{Row: 0, Col: 0}, Value: tabular.NumberValue(1)}, // valid or not, col 0 type decides
		{Worker: "w", Cell: tabular.Cell{Row: 999, Col: 0}, Value: tabular.LabelValue(0)},
	}
	if err := m.Ingest(bad); err == nil {
		t.Fatal("out-of-range batch accepted")
	}
	if m.NumAnswersUsed() != before || len(m.WorkerIDs) != workers {
		t.Fatal("failed Ingest mutated the model")
	}

	// An out-of-range label must be rejected up front too — merged, it
	// would index out of the posterior arena at the next refresh.
	catCol := -1
	for j, col := range ds.Table.Schema.Columns {
		if col.Type == tabular.Categorical {
			catCol = j
			break
		}
	}
	badLabel := []tabular.Answer{{
		Worker: "w",
		Cell:   tabular.Cell{Row: 0, Col: catCol},
		Value:  tabular.LabelValue(ds.Table.Schema.Columns[catCol].NumLabels()),
	}}
	if err := m.Ingest(badLabel); err == nil {
		t.Fatal("out-of-range label accepted")
	}
	if m.NumAnswersUsed() != before {
		t.Fatal("failed label Ingest mutated the model")
	}
	m.RefreshIncremental(1) // must not panic on arena indexing
}

// TestIngestSteadyStateAllocs pins streaming ingestion at O(batch)
// allocations: once capacity headroom is warm, absorbing a batch performs a
// small constant number of allocations regardless of the stored log's size.
func TestIngestSteadyStateAllocs(t *testing.T) {
	measure := func(rows int) float64 {
		ds, log := equivDataset(3500, rows)
		m, err := Infer(ds.Table, log, Options{})
		if err != nil {
			t.Fatal(err)
		}
		crowd := simulate.NewCrowd(ds, 3501)
		batch := tabular.NewAnswerLog()
		crowd.AppendBatch(batch, 50)
		// Warm headroom: a few batches grow every arena past its next
		// capacity step.
		for i := 0; i < 4; i++ {
			if err := m.Ingest(batch.All()); err != nil {
				t.Fatal(err)
			}
			m.RefreshIncremental(1)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := m.Ingest(batch.All()); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs - before.Mallocs)
	}

	small := measure(20) // ~1.6k answers
	large := measure(80) // ~6.4k answers
	// O(log) ingestion would cost thousands of allocations here (decode of
	// the full log); O(batch) costs a handful that do not grow with the
	// log.
	if small > 24 || large > 24 {
		t.Fatalf("steady-state ingest allocates too much: %0.f (small log) / %0.f (large log)", small, large)
	}
	if large > small+8 {
		t.Fatalf("ingest allocations scale with log size: %0.f -> %0.f", small, large)
	}
}

// TestEstimatesIntoSteadyStateAllocs pins the zero-alloc estimate fill:
// once a flat-backed Estimates exists, refreshing it in place allocates
// nothing — the assignment engine's applyRefresh depends on this to keep
// the streaming tier allocation-free.
func TestEstimatesIntoSteadyStateAllocs(t *testing.T) {
	ds, log := equivDataset(3600, 25)
	m, err := Infer(ds.Table, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	est := m.Estimates()
	if avg := testing.AllocsPerRun(50, func() { m.EstimatesInto(est) }); avg > 0 {
		t.Fatalf("EstimatesInto allocates %.1f allocs/run, want 0", avg)
	}
}

// TestOutOfBoundNumbersAreSkipped pins how the model treats a numeric
// answer beyond ±MaxAnswerMagnitude that a log already holds (the
// platform refuses new ones; a WAL may have acknowledged one before): the
// column constants and the decoded store skip it, so a streamed batch
// carrying it refreshes to exactly the fit a rebuild of the grown log
// produces, and both fits — and a cold one — stay finite.
func TestOutOfBoundNumbersAreSkipped(t *testing.T) {
	opts := Options{MaxIter: 40, Tol: 1e-9, MStepIter: 25}
	ds, full := equivDataset(3301, 25)
	all := full.All()
	col := -1
	for j, c := range ds.Table.Schema.Columns {
		if c.Type == tabular.Continuous {
			col = j
			break
		}
	}
	if col < 0 {
		t.Fatal("dataset has no continuous column")
	}
	huge := tabular.Answer{Worker: "huge", Cell: tabular.Cell{Row: 0, Col: col}, Value: tabular.NumberValue(2e154)}

	prefix := len(all) / 2
	prefLog := tabular.NewAnswerLog()
	prefLog.AddAll(all[:prefix])
	m, err := Infer(ds.Table, prefLog, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Infer(ds.Table, prefLog, opts)
	if err != nil {
		t.Fatal(err)
	}
	batch := append([]tabular.Answer{huge}, all[prefix:]...)
	if err := m.Ingest(batch); err != nil {
		t.Fatal(err)
	}
	m.RefreshIncremental(12)
	grown := prefLog.Clone()
	grown.AddAll(batch)
	wopts := opts
	wopts.MaxIter = 12
	if ref, err = InferWarm(ref, ds.Table, grown, wopts); err != nil {
		t.Fatal(err)
	}
	assertBitwiseFit(t, 0, ref, m)
	cold, err := Infer(ds.Table, grown, opts)
	if err != nil {
		t.Fatal(err)
	}

	for name, fit := range map[string]*Model{"streamed": m, "rebuilt": ref, "cold": cold} {
		for j := range fit.ColStd {
			if math.IsInf(fit.ColMean[j], 0) || math.IsNaN(fit.ColMean[j]) || math.IsInf(fit.ColStd[j], 0) || math.IsNaN(fit.ColStd[j]) {
				t.Fatalf("%s fit: column %d constants (%v, %v)", name, j, fit.ColMean[j], fit.ColStd[j])
			}
		}
		for i, row := range fit.Estimates() {
			for j, v := range row {
				if v.Kind == tabular.Number && (math.IsInf(v.X, 0) || math.IsNaN(v.X)) {
					t.Fatalf("%s fit: estimate (%d,%d) = %v", name, i, j, v.X)
				}
			}
		}
	}
}
