package core

import (
	"math"
	"testing"

	"tcrowd/internal/metrics"
	"tcrowd/internal/simulate"
	"tcrowd/internal/stats"
	"tcrowd/internal/tabular"
)

func smallDataset(seed int64) (*simulate.Dataset, *tabular.AnswerLog) {
	ds := simulate.Generate(stats.NewRNG(seed), simulate.TableConfig{
		Rows: 30, Cols: 6, CatRatio: 0.5,
		Population: simulate.PopulationConfig{N: 25},
	})
	cr := simulate.NewCrowd(ds, seed+1)
	return ds, cr.FixedAssignment(5)
}

func TestInferRunsAndConverges(t *testing.T) {
	ds, log := smallDataset(100)
	m, err := Infer(ds.Table, log, Options{TrackObjective: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.Iterations == 0 {
		t.Fatal("no iterations")
	}
	if len(m.Phi) != log.NumWorkers() {
		t.Fatalf("phi arity %d want %d", len(m.Phi), log.NumWorkers())
	}
	for _, phi := range m.Phi {
		if !(phi > 0) || math.IsInf(phi, 0) {
			t.Fatalf("bad phi %v", phi)
		}
	}
	for _, a := range m.Alpha {
		if !(a > 0) {
			t.Fatal("bad alpha")
		}
	}
}

func TestInferBeatsMajorityVoteAndMean(t *testing.T) {
	// Averaged over seeds: per-seed tables have only ~90 categorical
	// cells, where one or two flipped cells would dominate a strict
	// comparison.
	var tcER, tcMN, mvER, mvMN float64
	for _, seed := range []int64{200, 210, 220} {
		ds, log := smallDataset(seed)
		m, err := Infer(ds.Table, log, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := metrics.Evaluate(ds.Table, m.Estimates(), log)

		// Equal-weight baseline: majority vote / plain mean.
		naive := metrics.NewEstimates(ds.Table)
		for i := 0; i < ds.Table.NumRows(); i++ {
			for j, col := range ds.Table.Schema.Columns {
				c := tabular.Cell{Row: i, Col: j}
				as := log.ByCell(c)
				if len(as) == 0 {
					continue
				}
				if col.Type == tabular.Categorical {
					counts := make([]float64, col.NumLabels())
					for _, a := range as {
						counts[a.Value.L]++
					}
					naive[i][j] = tabular.LabelValue(argMax(counts))
				} else {
					var xs []float64
					for _, a := range as {
						xs = append(xs, a.Value.X)
					}
					naive[i][j] = tabular.NumberValue(stats.Mean(xs))
				}
			}
		}
		base := metrics.Evaluate(ds.Table, naive, log)
		tcER += got.ErrorRate
		tcMN += got.MNAD
		mvER += base.ErrorRate
		mvMN += base.MNAD
	}
	if tcER > mvER+1e-9 {
		t.Fatalf("T-Crowd mean error rate %.4f worse than majority vote %.4f", tcER/3, mvER/3)
	}
	if tcMN > mvMN+1e-9 {
		t.Fatalf("T-Crowd mean MNAD %.4f worse than mean aggregation %.4f", tcMN/3, mvMN/3)
	}
}

func TestInferRecoversWorkerQualityOrdering(t *testing.T) {
	ds, log := smallDataset(300)
	m, err := Infer(ds.Table, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Planted phi vs inferred phi should correlate strongly.
	var planted, inferred []float64
	for k, u := range m.WorkerIDs {
		w := ds.WorkerByID(u)
		if w == nil {
			t.Fatalf("unknown worker %s", u)
		}
		planted = append(planted, math.Log(w.Phi))
		inferred = append(inferred, math.Log(m.Phi[k]))
	}
	r := stats.Pearson(planted, inferred)
	if r < 0.6 {
		t.Fatalf("planted/inferred phi correlation too weak: r=%.3f", r)
	}
}

func TestELBOMonotone(t *testing.T) {
	ds, log := smallDataset(400)
	m, err := Infer(ds.Table, log, Options{TrackObjective: true, MaxIter: 15})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.ObjTrace) < 2 {
		t.Fatal("no trace")
	}
	for k := 1; k < len(m.ObjTrace); k++ {
		if m.ObjTrace[k] < m.ObjTrace[k-1]-1e-6 {
			t.Fatalf("ELBO decreased at %d: %v -> %v", k, m.ObjTrace[k-1], m.ObjTrace[k])
		}
	}
}

func TestAnalyticGradientMatchesNumeric(t *testing.T) {
	ds, log := smallDataset(500)
	m, err := newModel(ds.Table, log.All(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	m.eStep() // fix posteriors at a non-trivial point

	n, mm, u := len(m.Alpha), len(m.Beta), len(m.Phi)
	dim := n + mm + u
	theta := make([]float64, dim)
	// Probe at a slightly perturbed point so no gradient is trivially 0.
	rng := stats.NewRNG(501)
	for i := range theta {
		theta[i] = 0.3 * rng.NormFloat64()
	}
	split := func(th []float64) (a, b, p []float64) {
		a = make([]float64, n)
		b = make([]float64, mm)
		p = make([]float64, u)
		for i := range a {
			a[i] = math.Exp(th[i])
		}
		for j := range b {
			b[j] = math.Exp(th[n+j])
		}
		for k := range p {
			p[k] = math.Exp(th[n+mm+k])
		}
		return
	}
	f := func(th []float64) float64 {
		a, b, p := split(th)
		return m.qValue(a, b, p)
	}
	a, b, p := split(theta)
	ga, gb, gp := m.qGradLog(a, b, p)
	analytic := append(append(append([]float64(nil), ga...), gb...), gp...)

	numeric := make([]float64, dim)
	// Central differences on the log-space objective.
	h := 1e-6
	for i := range theta {
		old := theta[i]
		theta[i] = old + h
		fp := f(theta)
		theta[i] = old - h
		fm := f(theta)
		theta[i] = old
		numeric[i] = (fp - fm) / (2 * h)
	}
	for i := range analytic {
		scale := math.Max(1, math.Abs(numeric[i]))
		if math.Abs(analytic[i]-numeric[i])/scale > 1e-4 {
			t.Fatalf("gradient %d: analytic %v numeric %v", i, analytic[i], numeric[i])
		}
	}
}

func TestInferModes(t *testing.T) {
	ds, log := smallDataset(600)
	full, err := Infer(ds.Table, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cate, err := Infer(ds.Table, log, Options{Mode: ModeOnlyCategorical})
	if err != nil {
		t.Fatal(err)
	}
	cont, err := Infer(ds.Table, log, Options{Mode: ModeOnlyContinuous})
	if err != nil {
		t.Fatal(err)
	}
	estCat := cate.Estimates()
	estCont := cont.Estimates()
	for i := 0; i < ds.Table.NumRows(); i++ {
		for j, col := range ds.Table.Schema.Columns {
			if col.Type == tabular.Continuous && !estCat[i][j].IsNone() {
				t.Fatal("TC-onlyCate must not estimate continuous cells")
			}
			if col.Type == tabular.Categorical && !estCont[i][j].IsNone() {
				t.Fatal("TC-onlyCont must not estimate categorical cells")
			}
		}
	}
	// The full model should use strictly more answers than either mode.
	if full.NumAnswersUsed() <= cate.NumAnswersUsed() || full.NumAnswersUsed() <= cont.NumAnswersUsed() {
		t.Fatal("mode filters did not reduce the answer set")
	}
	// Unified inference should be at least as good as the constrained
	// variants on their own turf (Table 7's TC-onlyX comparison).
	fullRep := metrics.Evaluate(ds.Table, full.Estimates(), log)
	cateRep := metrics.Evaluate(ds.Table, estCat, log)
	contRep := metrics.Evaluate(ds.Table, estCont, log)
	if fullRep.ErrorRate > cateRep.ErrorRate+0.02 {
		t.Fatalf("full %.4f much worse than onlyCate %.4f", fullRep.ErrorRate, cateRep.ErrorRate)
	}
	if fullRep.MNAD > contRep.MNAD+0.05 {
		t.Fatalf("full %.4f much worse than onlyCont %.4f", fullRep.MNAD, contRep.MNAD)
	}
}

func TestInferFixDifficulty(t *testing.T) {
	ds, log := smallDataset(700)
	m, err := Infer(ds.Table, log, Options{FixDifficulty: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range m.Alpha {
		if a != 1 {
			t.Fatal("alpha moved despite FixDifficulty")
		}
	}
	for _, b := range m.Beta {
		if b != 1 {
			t.Fatal("beta moved despite FixDifficulty")
		}
	}
}

func TestInferErrors(t *testing.T) {
	ds, _ := smallDataset(800)
	if _, err := Infer(ds.Table, tabular.NewAnswerLog(), Options{}); err != ErrNoAnswers {
		t.Fatalf("want ErrNoAnswers, got %v", err)
	}
	bad := tabular.NewAnswerLog()
	bad.Add(tabular.Answer{Worker: "u", Cell: tabular.Cell{Row: 999, Col: 0}, Value: tabular.LabelValue(0)})
	if _, err := Infer(ds.Table, bad, Options{}); err == nil {
		t.Fatal("out-of-table answer accepted")
	}
	badSchema := &tabular.Table{}
	if _, err := Infer(badSchema, tabular.NewAnswerLog(), Options{}); err == nil {
		t.Fatal("invalid schema accepted")
	}
}

func TestDifficultyScaleAnchored(t *testing.T) {
	// The shrinkage priors on ln(alpha), ln(beta) anchor the scale of the
	// otherwise scale-ambiguous product alpha*beta*phi: geometric means
	// must hover near 1 instead of drifting.
	ds, log := smallDataset(900)
	m, err := Infer(ds.Table, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g := geoMean(m.Alpha); g < 0.4 || g > 2.5 {
		t.Fatalf("alpha geomean drifted: %v", g)
	}
	if g := geoMean(m.Beta); g < 0.4 || g > 2.5 {
		t.Fatalf("beta geomean drifted: %v", g)
	}
}
