package assign

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tcrowd/internal/core"
	"tcrowd/internal/simulate"
	"tcrowd/internal/stats"
	"tcrowd/internal/tabular"
)

func fittedModel(t *testing.T, seed int64) (*simulate.Dataset, *core.Model) {
	t.Helper()
	ds := simulate.Generate(stats.NewRNG(seed), simulate.TableConfig{
		Rows: 20, Cols: 6, CatRatio: 0.5,
		Population: simulate.PopulationConfig{N: 20},
	})
	log := simulate.NewCrowd(ds, seed+1).FixedAssignment(3)
	m, err := core.Infer(ds.Table, log, core.Options{MaxIter: 10})
	if err != nil {
		t.Fatal(err)
	}
	return ds, m
}

// naiveCatInfoGain is the O(|L|^2) reference implementation of the
// preposterior delta entropy; the O(|L|) production path must match it.
func naiveCatInfoGain(post []float64, q float64, eps float64) float64 {
	l := len(post)
	q = stats.Clamp(q, 1e-9, 1-1e-9)
	s := sFromQuality(eps, q)
	h0 := stats.ShannonEntropy(post)
	r := (1 - q) / float64(l-1)
	expH := 0.0
	for zp := 0; zp < l; zp++ {
		// Predictive probability of answer zp.
		pa := 0.0
		for z := 0; z < l; z++ {
			if z == zp {
				pa += post[z] * q
			} else {
				pa += post[z] * r
			}
		}
		upd := core.CatPosteriorWithAnswer(post, zp, eps, s)
		expH += pa * stats.ShannonEntropy(upd)
	}
	return h0 - expH
}

func TestCatInfoGainMatchesNaive(t *testing.T) {
	cases := []struct {
		post []float64
		q    float64
	}{
		{[]float64{0.5, 0.3, 0.2}, 0.8},
		{[]float64{0.25, 0.25, 0.25, 0.25}, 0.6},
		{[]float64{0.9, 0.05, 0.05}, 0.95},
		{[]float64{0.1, 0.9}, 0.5},
		{[]float64{0.98, 0.01, 0.005, 0.005}, 0.2},
	}
	for _, tc := range cases {
		fast := catInfoGain(tc.post, tc.q)
		slow := naiveCatInfoGain(tc.post, tc.q, 0.5)
		if math.Abs(fast-slow) > 1e-9 {
			t.Fatalf("post=%v q=%v: fast %v slow %v", tc.post, tc.q, fast, slow)
		}
	}
}

func TestQuickCatInfoGainNonNegative(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(7))}
	f := func(raw []float64, rawQ float64) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 12 {
			raw = raw[:12]
		}
		post := make([]float64, len(raw))
		for i, r := range raw {
			v := math.Abs(r)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 1
			}
			post[i] = 0.01 + math.Mod(v, 1)
		}
		post = stats.Categorical{P: post}.Normalize().P
		q := 0.01 + 0.98*math.Abs(math.Mod(rawQ, 1))
		ig := catInfoGain(post, q)
		// Information never hurts in expectation (Jensen): IG >= 0. It is
		// also bounded by the current entropy.
		return ig >= -1e-9 && ig <= stats.ShannonEntropy(post)+1e-9
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestCatInfoGainMonotoneInQuality(t *testing.T) {
	post := []float64{0.4, 0.35, 0.25}
	prev := -1.0
	// A more reliable worker answers more informatively (for q above
	// chance level 1/3).
	for _, q := range []float64{0.4, 0.5, 0.7, 0.9, 0.99} {
		ig := catInfoGain(post, q)
		if ig <= prev {
			t.Fatalf("IG should grow with quality: q=%v ig=%v prev=%v", q, ig, prev)
		}
		prev = ig
	}
}

func TestCatInfoGainChanceLevelIsZero(t *testing.T) {
	post := []float64{0.5, 0.25, 0.25}
	ig := catInfoGain(post, 1.0/3)
	if math.Abs(ig) > 1e-9 {
		t.Fatalf("chance-level worker should carry zero information, got %v", ig)
	}
}

func TestContInfoGainProperties(t *testing.T) {
	_, m := fittedModel(t, 40)
	var contCell, catCell tabular.Cell
	foundCont, foundCat := false, false
	for j, col := range m.Table.Schema.Columns {
		if col.Type == tabular.Continuous && !foundCont {
			contCell = tabular.Cell{Row: 0, Col: j}
			foundCont = true
		}
		if col.Type == tabular.Categorical && !foundCat {
			catCell = tabular.Cell{Row: 0, Col: j}
			foundCat = true
		}
	}
	u := m.WorkerIDs[0]
	igCont := InfoGain(m, u, contCell)
	igCat := InfoGain(m, u, catCell)
	if igCont < 0 || igCat < 0 {
		t.Fatalf("negative IG: cont=%v cat=%v", igCont, igCat)
	}
	// A better worker (lower phi) has higher continuous IG.
	good := tabular.WorkerID("synthetic-good")
	// Unknown worker -> median phi. Compare against best existing worker.
	best := m.WorkerIDs[0]
	for _, w := range m.WorkerIDs {
		if m.PhiFor(w) < m.PhiFor(best) {
			best = w
		}
	}
	if m.PhiFor(best) < m.PhiFor(good) {
		if InfoGain(m, best, contCell) <= InfoGain(m, good, contCell) {
			t.Fatal("lower-variance worker must have higher continuous IG")
		}
	}
}

func TestStructInfoGainFallsBackWithoutHistory(t *testing.T) {
	_, m := fittedModel(t, 60)
	em := BuildErrorModel(m)
	est := m.Estimates()
	// A brand-new worker has no row history anywhere: structure-aware
	// must equal inherent on every cell.
	u := tabular.WorkerID("fresh-worker")
	for _, c := range []tabular.Cell{{Row: 0, Col: 0}, {Row: 3, Col: 4}} {
		a := InfoGain(m, u, c)
		b := StructInfoGain(m, em, est, m.Log, u, c)
		if math.Abs(a-b) > 1e-12 {
			t.Fatalf("fallback mismatch at %v: %v vs %v", c, a, b)
		}
	}
	// Nil error model is also a fallback.
	if math.Abs(StructInfoGain(m, nil, est, m.Log, m.WorkerIDs[0], tabular.Cell{Row: 0, Col: 0})-
		InfoGain(m, m.WorkerIDs[0], tabular.Cell{Row: 0, Col: 0})) > 1e-12 {
		t.Fatal("nil error model fallback")
	}
}

func TestScoreAllParallelMatchesSerial(t *testing.T) {
	_, m := fittedModel(t, 70)
	cells := m.Table.Cells()
	score := func(c tabular.Cell) float64 { return m.Entropy(c) }
	serial := scoreAll(cells, 1, score)
	parallel := scoreAll(cells, 4, score)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("parallel scoring diverged at %d", i)
		}
	}
}

func TestSFromQualityInvertsQuality(t *testing.T) {
	for _, q := range []float64{0.1, 0.3, 0.5, 0.8, 0.99} {
		s := sFromQuality(0.5, q)
		back := math.Erf(0.5 / math.Sqrt(2*s))
		if math.Abs(back-q) > 1e-9 {
			t.Fatalf("q=%v -> s=%v -> q=%v", q, s, back)
		}
	}
	// Degenerate qualities clamp instead of exploding.
	if s := sFromQuality(0.5, 0); !(s > 0) || math.IsInf(s, 0) {
		t.Fatal("q=0 clamp")
	}
	if s := sFromQuality(0.5, 1); !(s > 0) {
		t.Fatal("q=1 clamp")
	}
}

func TestTopK(t *testing.T) {
	cells := []tabular.Cell{{Row: 0, Col: 0}, {Row: 0, Col: 1}, {Row: 0, Col: 2}, {Row: 0, Col: 3}}
	scores := []float64{0.1, 0.9, 0.5, 0.7}
	got := topK(cells, scores, 2)
	if len(got) != 2 || got[0] != (tabular.Cell{Row: 0, Col: 1}) || got[1] != (tabular.Cell{Row: 0, Col: 3}) {
		t.Fatalf("topK got %v", got)
	}
	// k beyond len.
	if got := topK(cells, scores, 99); len(got) != 4 {
		t.Fatal("overlong k")
	}
}
