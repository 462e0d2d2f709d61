package core

import (
	"math"
	"testing"

	"tcrowd/internal/stats"
	"tcrowd/internal/tabular"
)

func tinyFixture(t *testing.T) (*Model, *tabular.Table) {
	t.Helper()
	s := tabular.Schema{
		Key: "id",
		Columns: []tabular.Column{
			{Name: "cat", Type: tabular.Categorical, Labels: []string{"a", "b", "c"}},
			{Name: "num", Type: tabular.Continuous, Min: 0, Max: 100},
		},
	}
	tbl := tabular.NewTable(s, 3)
	log := tabular.NewAnswerLog()
	// Three workers agree on row 0, disagree on row 1; row 2 is unanswered.
	log.Add(tabular.Answer{Worker: "u1", Cell: tabular.Cell{Row: 0, Col: 0}, Value: tabular.LabelValue(1)})
	log.Add(tabular.Answer{Worker: "u2", Cell: tabular.Cell{Row: 0, Col: 0}, Value: tabular.LabelValue(1)})
	log.Add(tabular.Answer{Worker: "u3", Cell: tabular.Cell{Row: 0, Col: 0}, Value: tabular.LabelValue(1)})
	log.Add(tabular.Answer{Worker: "u1", Cell: tabular.Cell{Row: 1, Col: 0}, Value: tabular.LabelValue(0)})
	log.Add(tabular.Answer{Worker: "u2", Cell: tabular.Cell{Row: 1, Col: 0}, Value: tabular.LabelValue(2)})
	log.Add(tabular.Answer{Worker: "u1", Cell: tabular.Cell{Row: 0, Col: 1}, Value: tabular.NumberValue(50)})
	log.Add(tabular.Answer{Worker: "u2", Cell: tabular.Cell{Row: 0, Col: 1}, Value: tabular.NumberValue(54)})
	log.Add(tabular.Answer{Worker: "u3", Cell: tabular.Cell{Row: 1, Col: 1}, Value: tabular.NumberValue(20)})
	m, err := Infer(tbl, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m, tbl
}

func TestPosteriorAccessors(t *testing.T) {
	m, _ := tinyFixture(t)

	// Unanimous cell: posterior should prefer label 1 strongly.
	post, ok := m.PosteriorCat(tabular.Cell{Row: 0, Col: 0})
	if !ok || len(post) != 3 {
		t.Fatal("PosteriorCat shape")
	}
	if argMax(post) != 1 {
		t.Fatalf("posterior %v should prefer label 1", post)
	}
	sum := post[0] + post[1] + post[2]
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("posterior not normalised: %v", sum)
	}

	// Unanswered categorical cell falls back to uniform.
	post2, ok := m.PosteriorCat(tabular.Cell{Row: 2, Col: 0})
	if !ok || math.Abs(post2[0]-1.0/3) > 1e-12 {
		t.Fatalf("unanswered prior %v", post2)
	}

	// Continuous accessors.
	if _, ok := m.PosteriorCat(tabular.Cell{Row: 0, Col: 1}); ok {
		t.Fatal("PosteriorCat on continuous column")
	}
	mu, v, ok := m.PosteriorCont(tabular.Cell{Row: 0, Col: 1})
	if !ok || v <= 0 || v >= 1 {
		t.Fatalf("posterior var %v should shrink below the prior 1", v)
	}
	_ = mu
	// Unanswered continuous cell -> prior N(0,1).
	mu0, v0, ok := m.PosteriorCont(tabular.Cell{Row: 2, Col: 1})
	if !ok || mu0 != 0 || v0 != 1 {
		t.Fatal("unanswered continuous prior")
	}
	if _, _, ok := m.PosteriorCont(tabular.Cell{Row: 0, Col: 0}); ok {
		t.Fatal("PosteriorCont on categorical column")
	}
}

func TestEntropyShrinksWithAnswers(t *testing.T) {
	m, _ := tinyFixture(t)
	hUnanswered := m.Entropy(tabular.Cell{Row: 2, Col: 0})
	hUnanimous := m.Entropy(tabular.Cell{Row: 0, Col: 0})
	if hUnanimous >= hUnanswered {
		t.Fatalf("3 unanimous answers should reduce entropy: %v vs %v", hUnanimous, hUnanswered)
	}
	hc0 := m.Entropy(tabular.Cell{Row: 2, Col: 1}) // prior N(0,1)
	hc1 := m.Entropy(tabular.Cell{Row: 0, Col: 1}) // two answers
	if hc1 >= hc0 {
		t.Fatalf("answers should reduce differential entropy: %v vs %v", hc1, hc0)
	}
}

func TestWorkerQualityAccessors(t *testing.T) {
	m, _ := tinyFixture(t)
	q := m.WorkerQuality("u1")
	if q <= 0 || q >= 1 {
		t.Fatalf("quality out of range: %v", q)
	}
	// Unknown workers get the median-phi fallback.
	if got := m.PhiFor("stranger"); got != m.MedianPhi() {
		t.Fatal("PhiFor fallback")
	}
	cq := m.CellQuality("u1", tabular.Cell{Row: 0, Col: 0})
	if cq <= 0 || cq >= 1 {
		t.Fatalf("cell quality %v", cq)
	}
	s := m.CellVarianceFor("u1", tabular.Cell{Row: 0, Col: 0})
	if s <= 0 {
		t.Fatal("cell variance")
	}
}

func TestStandardisationRoundTrip(t *testing.T) {
	m, _ := tinyFixture(t)
	x := 42.0
	if got := stats.Unstandardize(m.ToZ(1, x), m.ColMean[1], m.ColStd[1]); math.Abs(got-x) > 1e-9 {
		t.Fatalf("round trip %v", got)
	}
}

func TestCatPosteriorWithAnswer(t *testing.T) {
	post := []float64{0.5, 0.3, 0.2}
	upd := CatPosteriorWithAnswer(post, 0, 0.5, 0.05) // reliable confirmation of label 0
	if argMax(upd) != 0 || upd[0] <= post[0] {
		t.Fatalf("confirmation should boost label 0: %v", upd)
	}
	sum := upd[0] + upd[1] + upd[2]
	if math.Abs(sum-1) > 1e-9 {
		t.Fatal("not normalised")
	}
	// An uninformative worker has q = 1/|L| (accuracy at chance): the
	// posterior must not move. Solve erf(eps/sqrt(2s)) = 1/3 for s.
	x := math.Erfinv(1.0 / 3.0)
	sChance := 0.5 * 0.5 / (2 * x * x)
	upd2 := CatPosteriorWithAnswer(post, 2, 0.5, sChance)
	for z := range post {
		if math.Abs(upd2[z]-post[z]) > 1e-9 {
			t.Fatalf("chance-level answer moved posterior: %v -> %v", post, upd2)
		}
	}
	// Zero-probability labels stay at zero.
	upd3 := CatPosteriorWithAnswer([]float64{0, 0.6, 0.4}, 1, 0.5, 0.1)
	if upd3[0] != 0 {
		t.Fatalf("resurrected dead label: %v", upd3)
	}
}

func TestContVarWithAnswer(t *testing.T) {
	v := ContVarWithAnswer(1, 1)
	if math.Abs(v-0.5) > 1e-12 {
		t.Fatalf("two unit precisions should give var 0.5, got %v", v)
	}
	if got := ContVarWithAnswer(0.5, 1e12); got >= 0.5 {
		t.Fatal("even a terrible answer cannot raise variance")
	}
}

func TestLogQStable(t *testing.T) {
	for _, s := range []float64{1e-8, 1e-4, 0.1, 1, 100, 1e8} {
		lnQ, lnNotQ := logQ(0.5, s)
		if math.IsNaN(lnQ) || math.IsNaN(lnNotQ) {
			t.Fatalf("logQ NaN at s=%v", s)
		}
		if lnQ > 0 || lnNotQ > 1e-12 {
			t.Fatalf("log-probabilities must be <= 0 at s=%v: %v %v", s, lnQ, lnNotQ)
		}
		// q + (1-q) = 1.
		total := math.Exp(lnQ) + math.Exp(lnNotQ)
		if math.Abs(total-1) > 1e-6 {
			t.Fatalf("q mass broken at s=%v: %v", s, total)
		}
	}
}

func TestQualityMonotoneInVariance(t *testing.T) {
	prev := 1.0
	for _, s := range []float64{0.01, 0.1, 1, 10, 100} {
		q := math.Erf(0.5 / math.Sqrt(2*s))
		if q >= prev {
			t.Fatal("quality must fall as variance grows")
		}
		prev = q
	}
	_ = stats.Eps
}

// TestFreezeIsDetachedCopy pins Model.Freeze: the copy answers every
// scoring accessor exactly like the model it was taken from, carries no
// answer store, and stays bit-identical while the source model keeps
// streaming new answers.
func TestFreezeIsDetachedCopy(t *testing.T) {
	m, tbl := tinyFixture(t)
	f := m.Freeze()
	if f.Log != nil {
		t.Fatal("frozen copy retains the answer log")
	}
	cells := tbl.Cells()
	workers := []tabular.WorkerID{"u1", "u2", "u3", "stranger"}
	type probe struct {
		est  tabular.Value
		h    float64
		post []float64
		s    map[tabular.WorkerID]float64
	}
	snap := func(x *Model) []probe {
		out := make([]probe, len(cells))
		for i, c := range cells {
			p := probe{est: x.EstimateCell(c.Row, c.Col), h: x.Entropy(c), s: map[tabular.WorkerID]float64{}}
			p.post, _ = x.PosteriorCat(c)
			for _, u := range workers {
				p.s[u] = x.CellVarianceFor(u, c)
			}
			out[i] = p
		}
		return out
	}
	equal := func(a, b []probe) bool {
		for i := range a {
			if !a[i].est.Equal(b[i].est) || a[i].h != b[i].h || len(a[i].post) != len(b[i].post) {
				return false
			}
			for z := range a[i].post {
				if a[i].post[z] != b[i].post[z] {
					return false
				}
			}
			for u, s := range a[i].s {
				if b[i].s[u] != s {
					return false
				}
			}
		}
		return true
	}
	frozen := snap(f)
	if !equal(snap(m), frozen) {
		t.Fatal("frozen copy disagrees with its source model")
	}

	// Stream a batch that moves the model: new worker, new cells.
	m.Log.Add(tabular.Answer{Worker: "u4", Cell: tabular.Cell{Row: 2, Col: 0}, Value: tabular.LabelValue(2)})
	m.Log.Add(tabular.Answer{Worker: "u4", Cell: tabular.Cell{Row: 1, Col: 0}, Value: tabular.LabelValue(2)})
	m.Log.Add(tabular.Answer{Worker: "u4", Cell: tabular.Cell{Row: 2, Col: 1}, Value: tabular.NumberValue(90)})
	if n, err := m.IngestFrom(m.Log); err != nil || n != 3 {
		t.Fatalf("ingest: n=%d err=%v", n, err)
	}
	m.RefreshIncremental(50)
	if equal(snap(m), frozen) {
		t.Fatal("streamed batch did not move the source model; the test proves nothing")
	}
	if !equal(snap(f), frozen) {
		t.Fatal("frozen copy changed when the source model streamed")
	}
}
