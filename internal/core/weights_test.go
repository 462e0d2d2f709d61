package core

import (
	"math"
	"testing"

	"tcrowd/internal/simulate"
	"tcrowd/internal/tabular"
)

// inferWeighted is Infer with worker weights installed before the fit, as
// the platform installs its reputation weights.
func inferWeighted(t *testing.T, tbl *tabular.Table, log *tabular.AnswerLog, opts Options, w map[tabular.WorkerID]float64) *Model {
	t.Helper()
	m := loadModel(t, tbl, log, opts)
	m.SetWorkerWeights(w)
	m.RefreshIncremental(0)
	return m
}

// TestWorkerWeightsAllOnesBitwise proves that installing all-ones weights
// before the fit leaves it bitwise identical to an unweighted run: multiplying by 1.0 is an IEEE identity and the
// all-ones map collapses back to the nil fast path.
func TestWorkerWeightsAllOnesBitwise(t *testing.T) {
	ds, log := equivDataset(3001, 30)
	plain, err := Infer(ds.Table, log, Options{MaxIter: 10})
	if err != nil {
		t.Fatal(err)
	}
	w := make(map[tabular.WorkerID]float64, len(ds.Workers))
	for _, wk := range ds.Workers {
		w[wk.ID] = 1
	}
	weighted := inferWeighted(t, ds.Table, log, Options{MaxIter: 10}, w)
	if weighted.wgt != nil {
		t.Fatal("all-ones weight map did not collapse to the nil fast path")
	}
	assertModelsAgree(t, plain, weighted, 0) // tol 0: exact equality
	for k := range plain.Phi {
		if plain.Phi[k] != weighted.Phi[k] {
			t.Fatalf("phi[%d] not bitwise equal: %v vs %v", k, plain.Phi[k], weighted.Phi[k])
		}
	}
}

// TestWeightedFusedMatchesReference extends the fused==reference
// equivalence guarantee to weighted fits: with a mix of full, fractional
// and zero weights, the sufficient-statistics engine and the per-answer
// reference M-step still compute the same fit.
func TestWeightedFusedMatchesReference(t *testing.T) {
	ds, log := equivDataset(3002, 40)
	w := make(map[tabular.WorkerID]float64, len(ds.Workers))
	for i, wk := range ds.Workers {
		switch i % 3 {
		case 0:
			w[wk.ID] = 1
		case 1:
			w[wk.ID] = 0.35
		default:
			w[wk.ID] = 0
		}
	}
	fused := inferWeighted(t, ds.Table, log, Options{MaxIter: 15}, w)
	ref := inferWeighted(t, ds.Table, log, Options{MaxIter: 15, refMStep: mStepReference}, w)
	assertModelsAgree(t, fused, ref, 1e-9)
}

// TestWeightedParallelMatchesSequential covers the pool-sharded engine
// under weights (reduction order is the only allowed difference).
func TestWeightedParallelMatchesSequential(t *testing.T) {
	ds, log := equivDataset(3003, 40)
	w := map[tabular.WorkerID]float64{ds.Workers[0].ID: 0, ds.Workers[1].ID: 0.5}
	seq := inferWeighted(t, ds.Table, log, Options{MaxIter: 15}, w)
	par := inferWeighted(t, ds.Table, log, Options{MaxIter: 15, Parallelism: 4}, w)
	assertModelsAgree(t, seq, par, 1e-9)
}

// TestZeroWeightMatchesExclusion proves weight 0 means "this worker's
// answers carry no evidence": a fit with one worker zero-weighted reaches
// the same fixed point as a fit on a log with that worker's answers
// removed. The two runs differ in dimension (the zeroed worker's phi still
// exists, held up by its prior alone) and in the column standardisation
// constants (the zeroed worker's raw values still enter the column
// mean/std, so the N(0,1) prior and eps sit on slightly different
// scales), so they agree at the EM optimum to modest tolerance rather
// than iterate-for-iterate.
func TestZeroWeightMatchesExclusion(t *testing.T) {
	ds, log := equivDataset(3004, 40)
	out := ds.Workers[0].ID

	zeroed := inferWeighted(t, ds.Table, log, Options{}, map[tabular.WorkerID]float64{out: 0})

	filtered := tabular.NewAnswerLog()
	for _, a := range log.All() {
		if a.Worker != out {
			filtered.Add(a)
		}
	}
	excluded, err := Infer(ds.Table, filtered, Options{})
	if err != nil {
		t.Fatal(err)
	}

	ze, ee := zeroed.Estimates(), excluded.Estimates()
	for i := 0; i < ds.Table.NumRows(); i++ {
		for j := 0; j < ds.Table.NumCols(); j++ {
			a, b := ze[i][j], ee[i][j]
			if b.Kind == tabular.None {
				// Cell answered only by the excluded worker: the zeroed fit
				// reports the prior, the filtered fit reports nothing.
				continue
			}
			if a.Kind != b.Kind {
				t.Fatalf("estimate kind diverged at (%d,%d)", i, j)
			}
			if a.Kind == tabular.Label && a.L != b.L {
				t.Fatalf("label diverged at (%d,%d): %d vs %d", i, j, a.L, b.L)
			}
			if a.Kind == tabular.Number && math.Abs(a.X-b.X) > 1e-2*(1+math.Abs(b.X)) {
				t.Fatalf("number diverged at (%d,%d): %v vs %v", i, j, a.X, b.X)
			}
		}
	}
	for k, u := range zeroed.WorkerIDs {
		if u == out {
			continue
		}
		want := excluded.Phi[excluded.workerIdx[u]]
		if math.Abs(math.Log(zeroed.Phi[k])-math.Log(want)) > 1e-2 {
			t.Fatalf("phi(%s) diverged: %v vs %v", u, zeroed.Phi[k], want)
		}
	}
}

// TestSetWorkerWeightsStreaming exercises the online path: weights set on a
// fitted model survive streamed batches (new workers arrive at weight 1)
// and take effect at the next refresh.
func TestSetWorkerWeightsStreaming(t *testing.T) {
	ds, log := equivDataset(3005, 30)
	m, err := Infer(ds.Table, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	spam := ds.Workers[0].ID
	m.SetWorkerWeights(map[tabular.WorkerID]float64{spam: 0, ds.Workers[1].ID: -3})
	if got := m.WorkerWeight(spam); got != 0 {
		t.Fatalf("WorkerWeight(%s) = %v, want 0", spam, got)
	}
	if got := m.WorkerWeight(ds.Workers[1].ID); got != 0 {
		t.Fatalf("negative weight not clamped to 0: %v", got)
	}
	if got := m.WorkerWeight(ds.Workers[2].ID); got != 1 {
		t.Fatalf("unlisted worker weight = %v, want 1", got)
	}

	// A streamed batch introduces a brand-new worker mid-stream.
	fresh := tabular.WorkerID("fresh-worker")
	var batch []tabular.Answer
	for _, a := range simulate.NewCrowd(ds, 3006).FixedAssignment(1).All()[:10] {
		a.Worker = fresh
		batch = append(batch, a)
	}
	if err := m.Ingest(view(batch)); err != nil {
		t.Fatal(err)
	}
	m.RefreshIncremental(5)
	if got := m.WorkerWeight(fresh); got != 1 {
		t.Fatalf("streamed-in worker weight = %v, want 1", got)
	}
	est := m.Estimates()
	for i := range est {
		for j := range est[i] {
			if est[i][j].Kind == tabular.Number && math.IsNaN(est[i][j].X) {
				t.Fatalf("NaN estimate at (%d,%d) after weighted refresh", i, j)
			}
		}
	}

	// Clearing restores the unweighted fast path.
	m.SetWorkerWeights(nil)
	if m.wgt != nil {
		t.Fatal("SetWorkerWeights(nil) did not clear the weight vector")
	}
}
