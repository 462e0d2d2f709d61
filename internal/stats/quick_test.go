package stats

// Property-based tests (testing/quick) on the numeric substrate. These pin
// down invariants the rest of the system silently relies on.

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

var quickCfg = &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}

// boundedFloat maps an arbitrary float into (lo, hi) deterministically.
func boundedFloat(x, lo, hi float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		x = 0.5
	}
	frac := math.Abs(x) - math.Floor(math.Abs(x))
	return lo + frac*(hi-lo)
}

func TestQuickLogSumExpInvariants(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		max := math.Inf(-1)
		for i, r := range raw {
			xs[i] = boundedFloat(r, -50, 50)
			if xs[i] > max {
				max = xs[i]
			}
		}
		lse := LogSumExp(xs)
		// max <= lse <= max + ln(n)
		return lse >= max-1e-9 && lse <= max+math.Log(float64(len(xs)))+1e-9
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickNormalizeLogProbsSumsToOne(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = boundedFloat(r, -100, 10)
		}
		ps := NormalizeLogProbs(xs)
		s := 0.0
		for _, p := range ps {
			if p < 0 || p > 1+1e-12 {
				return false
			}
			s += p
		}
		return math.Abs(s-1) < 1e-9
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickShannonEntropyBounds(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		ps := make([]float64, len(raw))
		for i, r := range raw {
			ps[i] = boundedFloat(r, 0.001, 1)
		}
		c := Categorical{P: ps}.Normalize()
		h := c.Entropy()
		return h >= -1e-12 && h <= math.Log(float64(len(ps)))+1e-9
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPearsonRange(t *testing.T) {
	f := func(rawX, rawY []float64) bool {
		n := len(rawX)
		if len(rawY) < n {
			n = len(rawY)
		}
		if n < 2 {
			return true
		}
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := 0; i < n; i++ {
			xs[i] = boundedFloat(rawX[i], -100, 100)
			ys[i] = boundedFloat(rawY[i], -100, 100)
		}
		r := Pearson(xs, ys)
		return r >= -1-1e-9 && r <= 1+1e-9
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickVarianceNonNegative(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = boundedFloat(r, -1e6, 1e6)
		}
		return Variance(xs) >= 0
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMedianBetweenMinMax(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = boundedFloat(r, -1e3, 1e3)
		}
		lo, hi := slices.Min(xs), slices.Max(xs)
		m := Median(xs)
		return m >= lo-1e-12 && m <= hi+1e-12
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickGammaIncMonotoneInX(t *testing.T) {
	f := func(rawA, rawX1, rawX2 float64) bool {
		a := boundedFloat(rawA, 0.1, 20)
		x1 := boundedFloat(rawX1, 0, 40)
		x2 := boundedFloat(rawX2, 0, 40)
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		p1 := GammaIncLower(a, x1)
		p2 := GammaIncLower(a, x2)
		if p1 < -1e-12 || p2 > 1+1e-12 {
			return false
		}
		return p1 <= p2+1e-9
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickChiSquareQuantileMonotone(t *testing.T) {
	f := func(rawK, rawP1, rawP2 float64) bool {
		k := boundedFloat(rawK, 0.5, 60)
		p1 := boundedFloat(rawP1, 0.01, 0.99)
		p2 := boundedFloat(rawP2, 0.01, 0.99)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return ChiSquareQuantile(p1, k) <= ChiSquareQuantile(p2, k)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBivariateConditionalVarianceShrinks(t *testing.T) {
	// Conditioning can only reduce (or keep) variance for a bivariate normal.
	f := func(rawVX, rawVY, rawCov, rawX float64) bool {
		vx := boundedFloat(rawVX, 0.05, 10)
		vy := boundedFloat(rawVY, 0.05, 10)
		maxCov := math.Sqrt(vx*vy) * 0.999
		cov := boundedFloat(rawCov, -maxCov, maxCov)
		b := BivariateNormal{VarX: vx, VarY: vy, Cov: cov}
		c := b.ConditionalY(boundedFloat(rawX, -5, 5))
		return c.Var <= vy+1e-9 && c.Var > 0
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickStandardizeRoundTrip(t *testing.T) {
	f := func(rawX, rawMu, rawStd float64) bool {
		x := boundedFloat(rawX, -1e4, 1e4)
		mu := boundedFloat(rawMu, -1e3, 1e3)
		std := boundedFloat(rawStd, 0.01, 1e3)
		back := Unstandardize(Standardize(x, mu, std), mu, std)
		return math.Abs(back-x) < 1e-6*math.Max(1, math.Abs(x))
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}
