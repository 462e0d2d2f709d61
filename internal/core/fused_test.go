package core

import (
	"math"
	"testing"

	"tcrowd/internal/simulate"
	"tcrowd/internal/stats"
	"tcrowd/internal/tabular"
)

// equivDataset builds a mixed-type workload for the equivalence tests.
func equivDataset(seed int64, rows int) (*simulate.Dataset, *tabular.AnswerLog) {
	ds := simulate.Generate(stats.NewRNG(seed), simulate.TableConfig{
		Rows: rows, Cols: 8, CatRatio: 0.5,
		Population: simulate.PopulationConfig{N: 30},
	})
	return ds, simulate.NewCrowd(ds, seed+1).FixedAssignment(4)
}

// loadModel returns a model that has ingested log but not been fitted:
// parameters at their initial values, posteriors still zero.
func loadModel(t *testing.T, tbl *tabular.Table, log *tabular.AnswerLog, opts Options) *Model {
	t.Helper()
	m, err := NewModel(tbl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Ingest(log.Prefix()); err != nil {
		t.Fatal(err)
	}
	return m
}

// view returns answers, in order, as an answer view.
func view(answers []tabular.Answer) tabular.AnswerView {
	log := tabular.NewAnswerLog()
	log.AddAll(answers)
	return log.Prefix()
}

// assertModelsAgree checks two fits for numerical equivalence: identical
// EM iteration counts and estimates/parameters within tol.
func assertModelsAgree(t *testing.T, a, b *Model, tol float64) {
	t.Helper()
	if a.Iterations != b.Iterations {
		t.Fatalf("EM iteration count diverged: %d vs %d", a.Iterations, b.Iterations)
	}
	if a.Converged != b.Converged {
		t.Fatalf("convergence flag diverged: %v vs %v", a.Converged, b.Converged)
	}
	ea, eb := a.Estimates(), b.Estimates()
	for i := 0; i < a.Table.NumRows(); i++ {
		for j := 0; j < a.Table.NumCols(); j++ {
			va, vb := ea[i][j], eb[i][j]
			if va.Kind != vb.Kind {
				t.Fatalf("estimate kind diverged at (%d,%d)", i, j)
			}
			if va.Kind == tabular.Label && va.L != vb.L {
				t.Fatalf("label diverged at (%d,%d): %d vs %d", i, j, va.L, vb.L)
			}
			if va.Kind == tabular.Number && math.Abs(va.X-vb.X) > tol*(1+math.Abs(va.X)) {
				t.Fatalf("number diverged at (%d,%d): %v vs %v", i, j, va.X, vb.X)
			}
		}
	}
	for k := range a.Phi {
		if math.Abs(a.Phi[k]-b.Phi[k]) > tol*(1+a.Phi[k]) {
			t.Fatalf("phi[%d] diverged: %v vs %v", k, a.Phi[k], b.Phi[k])
		}
	}
	for i := range a.Alpha {
		if math.Abs(a.Alpha[i]-b.Alpha[i]) > tol*(1+a.Alpha[i]) {
			t.Fatalf("alpha[%d] diverged: %v vs %v", i, a.Alpha[i], b.Alpha[i])
		}
	}
}

// TestFusedMatchesReference proves the fused-gradient engine computes the
// same fit as the unoptimised sequential reference M-step (separate
// objective and gradient passes): same EM iteration count, estimates and
// parameters within 1e-9.
func TestFusedMatchesReference(t *testing.T) {
	ds, log := equivDataset(2026, 40)
	fused, err := Infer(ds.Table, log, Options{MaxIter: 15})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Infer(ds.Table, log, Options{MaxIter: 15, refMStep: mStepReference})
	if err != nil {
		t.Fatal(err)
	}
	assertModelsAgree(t, fused, ref, 1e-9)
}

// TestFusedMatchesSeedOptimizer checks the optimised engine against the
// seed's original optimizer (unfused passes AND the fixed-step line
// search, i.e. no step memory). The two take different line-search paths,
// so they agree at the EM fixed point rather than iterate-for-iterate:
// labels must match and continuous estimates / worker variances must be
// close.
func TestFusedMatchesSeedOptimizer(t *testing.T) {
	ds, log := equivDataset(2040, 40)
	fused, err := Infer(ds.Table, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seed, err := Infer(ds.Table, log, Options{refMStep: mStepSeed})
	if err != nil {
		t.Fatal(err)
	}
	fe, se := fused.Estimates(), seed.Estimates()
	for i := 0; i < ds.Table.NumRows(); i++ {
		for j := 0; j < ds.Table.NumCols(); j++ {
			a, b := fe[i][j], se[i][j]
			if a.Kind != b.Kind {
				t.Fatalf("estimate kind diverged at (%d,%d)", i, j)
			}
			if a.Kind == tabular.Label && a.L != b.L {
				t.Fatalf("label diverged at (%d,%d): %d vs %d", i, j, a.L, b.L)
			}
			if a.Kind == tabular.Number && math.Abs(a.X-b.X) > 1e-3*(1+math.Abs(b.X)) {
				t.Fatalf("number diverged at (%d,%d): %v vs %v", i, j, a.X, b.X)
			}
		}
	}
	for k := range fused.Phi {
		if math.Abs(math.Log(fused.Phi[k])-math.Log(seed.Phi[k])) > 1e-2 {
			t.Fatalf("phi[%d] diverged: %v vs %v", k, fused.Phi[k], seed.Phi[k])
		}
	}
}

// TestFusedMatchesReferenceFixedDifficulty covers the FixDifficulty
// (worker-only) ablation path of the fused engine.
func TestFusedMatchesReferenceFixedDifficulty(t *testing.T) {
	ds, log := equivDataset(2027, 30)
	fused, err := Infer(ds.Table, log, Options{MaxIter: 10, FixDifficulty: true})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Infer(ds.Table, log, Options{MaxIter: 10, FixDifficulty: true, refMStep: mStepReference})
	if err != nil {
		t.Fatal(err)
	}
	assertModelsAgree(t, fused, ref, 1e-9)
}

// TestParallelMatchesSequentialFused proves the pool-sharded fused engine
// agrees with the sequential fused engine (floating-point reduction order
// is the only difference).
func TestParallelMatchesSequentialFused(t *testing.T) {
	ds, log := equivDataset(2028, 40)
	seq, err := Infer(ds.Table, log, Options{MaxIter: 15})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Infer(ds.Table, log, Options{MaxIter: 15, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	assertModelsAgree(t, seq, par, 1e-9)
}

// TestQFusedMatchesSeparatePasses checks the fused objective+gradient
// evaluation against the separate qValue / qGradLog passes at a fixed
// parameter point, on a log of one-answer groups and on one where workers
// answer cells twice (the two paths derive a multi-answer group's
// residual from its moments by different closed forms).
func TestQFusedMatchesSeparatePasses(t *testing.T) {
	ds, log := equivDataset(2029, 30)
	repeated := log.Clone()
	simulate.NewCrowd(ds, 2030).AppendBatch(repeated, 240)
	checkQFusedMatchesSeparatePasses(t, ds.Table, log)
	if m := checkQFusedMatchesSeparatePasses(t, ds.Table, repeated); m.ilog.NumGroups() == m.ilog.Len() {
		t.Fatal("test premise broken: the repeated log has no multi-answer group")
	}
}

func checkQFusedMatchesSeparatePasses(t *testing.T, tbl *tabular.Table, log *tabular.AnswerLog) *Model {
	t.Helper()
	m := loadModel(t, tbl, log, Options{})
	m.eStep()
	// Nudge parameters off the initial point so the gradients are
	// non-trivial.
	for k := range m.Phi {
		m.Phi[k] = 0.05 + 0.01*float64(k%7)
	}
	for i := range m.Alpha {
		m.Alpha[i] = 1 + 0.02*float64(i%5)
	}

	m.ensureMStepScratch(len(m.Alpha) + len(m.Beta) + len(m.Phi))
	m.prepMStepConsts()
	ga := make([]float64, len(m.Alpha))
	gb := make([]float64, len(m.Beta))
	gp := make([]float64, len(m.Phi))
	val := m.qFused(m.Alpha, m.Beta, m.Phi, ga, gb, gp)

	wantVal := m.qValue(m.Alpha, m.Beta, m.Phi)
	wga, wgb, wgp := m.qGradLog(m.Alpha, m.Beta, m.Phi)

	if math.Abs(val-wantVal) > 1e-9*(1+math.Abs(wantVal)) {
		t.Fatalf("fused value %v vs separate %v", val, wantVal)
	}
	check := func(name string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("%s[%d]: fused %v vs separate %v", name, i, got[i], want[i])
			}
		}
	}
	check("ga", ga, wga)
	check("gb", gb, wgb)
	check("gp", gp, wgp)

	// Fast value-only path agrees too (it must match the fused value
	// bitwise for the line search to take identical decisions).
	if fast := m.qValueFast(m.Alpha, m.Beta, m.Phi); fast != val {
		t.Fatalf("value-only path diverged from fused value: %v vs %v", fast, val)
	}
	return m
}

// TestEStepSteadyStateAllocs pins the sequential E-step at zero
// steady-state allocations: posteriors update in place in the arena.
func TestEStepSteadyStateAllocs(t *testing.T) {
	ds, log := equivDataset(2030, 30)
	m := loadModel(t, ds.Table, log, Options{})
	m.eStep() // warm
	if avg := testing.AllocsPerRun(10, m.eStep); avg > 0 {
		t.Fatalf("E-step allocates in steady state: %.1f allocs/run", avg)
	}
}

// TestMStepSteadyStateAllocs pins the fused M-step at zero steady-state
// allocations once the scratch arena is warm.
func TestMStepSteadyStateAllocs(t *testing.T) {
	ds, log := equivDataset(2031, 30)
	m := loadModel(t, ds.Table, log, Options{})
	m.eStep()
	m.mStep() // warm the scratch arena and optimizer workspace
	if avg := testing.AllocsPerRun(10, m.mStep); avg > 0 {
		t.Fatalf("M-step allocates in steady state: %.1f allocs/run", avg)
	}
}

// TestInferWarmMatchesCold checks that a warm-started re-inference after
// an answer batch reaches the same estimates as a cold fit on the grown
// log (same EM fixed point, modest tolerance: the two runs take different
// paths to it).
func TestInferWarmMatchesCold(t *testing.T) {
	ds, log := equivDataset(2032, 40)
	prev, err := Infer(ds.Table, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// One more answer batch lands.
	simulate.NewCrowd(ds, 2033).AppendBatch(log, 60)
	warm, err := InferWarm(prev, ds.Table, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Infer(ds.Table, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Iterations > WarmMaxIter {
		t.Fatalf("warm run used %d iterations (cap %d)", warm.Iterations, WarmMaxIter)
	}
	// Same optimum: labels identical, continuous estimates and worker
	// variances close (EM tolerance, not bit precision).
	we, ce := warm.Estimates(), cold.Estimates()
	for i := 0; i < ds.Table.NumRows(); i++ {
		for j := 0; j < ds.Table.NumCols(); j++ {
			a, b := we[i][j], ce[i][j]
			if a.Kind != b.Kind {
				t.Fatalf("estimate kind diverged at (%d,%d)", i, j)
			}
			if a.Kind == tabular.Label && a.L != b.L {
				t.Fatalf("label diverged at (%d,%d)", i, j)
			}
			if a.Kind == tabular.Number && math.Abs(a.X-b.X) > 1e-2*(1+math.Abs(b.X)) {
				t.Fatalf("number diverged at (%d,%d): %v vs %v", i, j, a.X, b.X)
			}
		}
	}
}

// TestInferWarmFallsBackCold covers the safety fallbacks: nil previous
// model and dimension mismatch both silently run a cold fit.
func TestInferWarmFallsBackCold(t *testing.T) {
	ds, log := equivDataset(2034, 20)
	m, err := InferWarm(nil, ds.Table, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m == nil || m.Iterations == 0 {
		t.Fatal("nil-prev warm start did not run")
	}

	other, logOther := equivDataset(2035, 25) // different row count
	prevOther, err := Infer(other.Table, logOther, Options{MaxIter: 3})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := InferWarm(prevOther, ds.Table, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Infer(ds.Table, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertBitwiseFit(t, 0, cold, m)
	assertBitwiseFit(t, 1, cold, m2)
}
