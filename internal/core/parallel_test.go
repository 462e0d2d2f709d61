package core

import (
	"math"
	"runtime"
	"testing"

	"tcrowd/internal/ingest"
	"tcrowd/internal/simulate"
	"tcrowd/internal/stats"
)

func TestParallelInferMatchesSerial(t *testing.T) {
	ds, log := smallDataset(1000)
	serial, err := Infer(ds.Table, log, Options{MaxIter: 8})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Infer(ds.Table, log, Options{MaxIter: 8, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Results agree up to floating-point reduction order: estimates must
	// be identical, parameters very close.
	se, pe := serial.Estimates(), parallel.Estimates()
	for i := 0; i < ds.Table.NumRows(); i++ {
		for j := 0; j < ds.Table.NumCols(); j++ {
			a, b := se[i][j], pe[i][j]
			if a.Kind != b.Kind {
				t.Fatalf("estimate kind diverged at (%d,%d)", i, j)
			}
			if a.Kind == 1 && a.L != b.L { // label
				t.Fatalf("label diverged at (%d,%d): %v vs %v", i, j, a.L, b.L)
			}
			if a.Kind == 2 && math.Abs(a.X-b.X) > 1e-4 { // number
				t.Fatalf("number diverged at (%d,%d): %v vs %v", i, j, a.X, b.X)
			}
		}
	}
	for k := range serial.Phi {
		if math.Abs(math.Log(serial.Phi[k])-math.Log(parallel.Phi[k])) > 1e-3 {
			t.Fatalf("phi[%d] diverged: %v vs %v", k, serial.Phi[k], parallel.Phi[k])
		}
	}
}

func TestParallelQValueMatchesSerial(t *testing.T) {
	ds, log := smallDataset(1100)
	m := loadModel(t, ds.Table, log, Options{})
	m.eStep()
	alpha := append([]float64(nil), m.Alpha...)
	beta := append([]float64(nil), m.Beta...)
	phi := append([]float64(nil), m.Phi...)
	want := m.paramLogPrior(alpha, beta, phi) + m.qValueRange(alpha, beta, phi, 0, len(m.ilog.Groups))
	for _, workers := range []int{2, 3, 8} {
		got := m.qValueParallel(alpha, beta, phi, workers)
		if math.Abs(got-want) > 1e-6*math.Abs(want) {
			t.Fatalf("workers=%d: %v want %v", workers, got, want)
		}
	}
}

func TestParallelGradMatchesSerial(t *testing.T) {
	ds, log := smallDataset(1200)
	m := loadModel(t, ds.Table, log, Options{})
	m.eStep()
	alpha, beta, phi := m.Alpha, m.Beta, m.Phi
	ga := make([]float64, len(alpha))
	gb := make([]float64, len(beta))
	gp := make([]float64, len(phi))
	m.priorGradLog(alpha, beta, phi, ga, gb, gp)
	m.qGradLogRange(alpha, beta, phi, 0, len(m.ilog.Groups), ga, gb, gp)

	pa, pb, pp := m.qGradLogParallel(alpha, beta, phi, 4)
	check := func(name string, a, b []float64) {
		t.Helper()
		for i := range a {
			if math.Abs(a[i]-b[i]) > 1e-8*(1+math.Abs(a[i])) {
				t.Fatalf("%s[%d]: %v vs %v", name, i, a[i], b[i])
			}
		}
	}
	check("ga", ga, pa)
	check("gb", gb, pb)
	check("gp", gp, pp)
}

func TestParallelismClamp(t *testing.T) {
	ds, log := smallDataset(1300)
	m := loadModel(t, ds.Table, log, Options{Parallelism: 10000})
	if got := m.effectiveParallelism(); got < 1 || got > 10000 {
		t.Fatalf("effective parallelism %d", got)
	}
	m2 := loadModel(t, ds.Table, log, Options{})
	if m2.effectiveParallelism() != 1 {
		t.Fatal("default must be serial")
	}
}

func TestParallelELBOMonotone(t *testing.T) {
	ds := simulate.Generate(stats.NewRNG(1400), simulate.TableConfig{
		Rows: 40, Cols: 8, CatRatio: 0.5,
		Population: simulate.PopulationConfig{N: 30},
	})
	log := simulate.NewCrowd(ds, 1401).FixedAssignment(4)
	m, err := Infer(ds.Table, log, Options{Parallelism: 4, TrackObjective: true, MaxIter: 10})
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k < len(m.ObjTrace); k++ {
		if m.ObjTrace[k] < m.ObjTrace[k-1]-1e-6 {
			t.Fatalf("parallel ELBO decreased at %d", k)
		}
	}
}

// TestAutoParallelism pins the Parallelism resolution rules: 0 is auto
// (serial below AutoParallelMinAnswers, GOMAXPROCS at or above it), 1 is
// the explicit serial opt-out.
func TestAutoParallelism(t *testing.T) {
	ds, log := equivDataset(2060, 20)
	m, err := Infer(ds.Table, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.ilog.Len() >= AutoParallelMinAnswers {
		t.Fatalf("test premise broken: workload has %d answers", m.ilog.Len())
	}
	if got := m.effectiveParallelism(); got != 1 {
		t.Fatalf("auto parallelism on a small log = %d, want 1", got)
	}

	// Grow the store past the threshold (only its answer count is read).
	m.ilog.Append(make([]ingest.Answer, AutoParallelMinAnswers))
	want := runtime.GOMAXPROCS(0)
	if got := m.effectiveParallelism(); got != want {
		t.Fatalf("auto parallelism on a big log = %d, want GOMAXPROCS (%d)", got, want)
	}
	m.Opts.Parallelism = 1 // explicit opt-out wins over auto
	if got := m.effectiveParallelism(); got != 1 {
		t.Fatalf("explicit serial opt-out = %d, want 1", got)
	}
	m.Opts.Parallelism = want + 7 // explicit counts cap at GOMAXPROCS
	if got := m.effectiveParallelism(); got != want {
		t.Fatalf("oversubscribed parallelism = %d, want %d", got, want)
	}
}
