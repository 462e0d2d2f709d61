package stats

import (
	"math"
	"testing"
)

func TestNormalPDFGolden(t *testing.T) {
	n := Normal{Mu: 0, Var: 1}
	almostEqual(t, n.PDF(0), 1/math.Sqrt(2*math.Pi), 1e-12, "std normal peak")
	almostEqual(t, n.PDF(1), math.Exp(-0.5)/math.Sqrt(2*math.Pi), 1e-12, "pdf(1)")
	n2 := Normal{Mu: 3, Var: 4}
	almostEqual(t, n2.PDF(3), 1/math.Sqrt(8*math.Pi), 1e-12, "scaled peak")
	almostEqual(t, n2.LogPDF(5), math.Log(n2.PDF(5)), 1e-12, "log consistency")
}

// TestNormalCDFQuantile checks that NormalQuantile inverts the standard
// normal CDF, 0.5*erfc(-x/sqrt(2)).
func TestNormalCDFQuantile(t *testing.T) {
	for _, p := range []float64{0.01, 0.25, 0.5, 0.9, 0.99} {
		almostEqual(t, 0.5*math.Erfc(-NormalQuantile(p)/math.Sqrt2), p, 1e-10, "CDF/Quantile round trip")
	}
}

func TestNormalDegenerate(t *testing.T) {
	n := Normal{Mu: 2, Var: 0}
	if !math.IsInf(n.Entropy(), -1) {
		t.Fatal("degenerate entropy should be -Inf")
	}
	if !math.IsInf(n.LogPDF(3), -1) {
		t.Fatal("degenerate LogPDF off-mean should be -Inf")
	}
}

func TestNormalEntropyGolden(t *testing.T) {
	// H = 0.5 ln(2 pi e) for the standard normal = 1.4189385...
	almostEqual(t, Normal{Var: 1}.Entropy(), 1.418938533, 1e-8, "std entropy")
	// Entropy increases with variance.
	if (Normal{Var: 2}).Entropy() <= (Normal{Var: 1}).Entropy() {
		t.Fatal("entropy must grow with variance")
	}
	almostEqual(t, DifferentialEntropyNormal(1), Normal{Var: 1}.Entropy(), 1e-12, "helper")
}

func TestNormalSampleMoments(t *testing.T) {
	rng := NewRNG(42)
	n := Normal{Mu: -2, Var: 2.25}
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = n.Sample(rng)
	}
	m, v := MeanVariance(xs)
	almostEqual(t, m, -2, 0.05, "sample mean")
	almostEqual(t, v, 2.25, 0.1, "sample variance")
}

func TestBernoulli(t *testing.T) {
	b := Bernoulli{P: 0.3}
	almostEqual(t, b.Mean(), 0.3, 1e-12, "mean")
	// Entropy of fair coin = ln 2.
	almostEqual(t, Bernoulli{P: 0.5}.Entropy(), math.Ln2, 1e-12, "fair entropy")
	rng := NewRNG(7)
	ones := 0
	for i := 0; i < 10000; i++ {
		ones += b.Sample(rng)
	}
	almostEqual(t, float64(ones)/10000, 0.3, 0.02, "sample rate")
}

func TestCategorical(t *testing.T) {
	c := Categorical{P: []float64{2, 1, 1}}.Normalize()
	almostEqual(t, c.P[0], 0.5, 1e-12, "normalize")
	u := NewCategoricalUniform(4)
	almostEqual(t, u.Entropy(), math.Log(4), 1e-12, "uniform entropy")
	// Degenerate normalization falls back to uniform.
	d := Categorical{P: []float64{0, 0}}.Normalize()
	almostEqual(t, d.P[0], 0.5, 1e-12, "degenerate -> uniform")

	rng := NewRNG(3)
	counts := make([]int, 3)
	for i := 0; i < 30000; i++ {
		counts[c.Sample(rng)]++
	}
	almostEqual(t, float64(counts[0])/30000, 0.5, 0.02, "sample frequency")
}

func TestShannonEntropyBounds(t *testing.T) {
	if ShannonEntropy([]float64{1, 0, 0}) != 0 {
		t.Fatal("point mass entropy must be 0")
	}
	h := ShannonEntropy([]float64{0.25, 0.25, 0.25, 0.25})
	almostEqual(t, h, math.Log(4), 1e-12, "uniform is max")
}

func TestBivariateNormalConditional(t *testing.T) {
	b := BivariateNormal{MuX: 1, MuY: 2, VarX: 4, VarY: 9, Cov: 3}
	almostEqual(t, b.Rho(), 0.5, 1e-12, "rho")
	c := b.ConditionalY(3)
	// mu = 2 + 0.5 * (3/2) * (3-1) = 3.5 ; var = (1-0.25)*9 = 6.75
	almostEqual(t, c.Mu, 3.5, 1e-12, "conditional mean")
	almostEqual(t, c.Var, 6.75, 1e-12, "conditional var")

	// Independence: conditional equals marginal.
	ind := BivariateNormal{MuY: 5, VarX: 1, VarY: 2}
	c2 := ind.ConditionalY(100)
	almostEqual(t, c2.Mu, 5, 1e-12, "independent mean")
	almostEqual(t, c2.Var, 2, 1e-12, "independent var")
}

func TestFitBivariateNormalRecoversRho(t *testing.T) {
	rng := NewRNG(11)
	truth := BivariateNormal{MuX: -1, MuY: 2, VarX: 1, VarY: 4, Cov: 1.2}
	xs := make([]float64, 20000)
	ys := make([]float64, 20000)
	for i := range xs {
		xs[i], ys[i] = truth.Sample(rng)
	}
	fit := FitBivariateNormal(xs, ys, 1e-9)
	almostEqual(t, fit.MuX, truth.MuX, 0.05, "MuX")
	almostEqual(t, fit.MuY, truth.MuY, 0.1, "MuY")
	almostEqual(t, fit.Rho(), truth.Rho(), 0.05, "Rho")
}

func TestSampleLongTailAndTruncated(t *testing.T) {
	rng := NewRNG(5)
	for i := 0; i < 1000; i++ {
		v := SampleLongTail(rng, 0.2, 1.0, 0.01)
		if v < 0.01 {
			t.Fatal("long tail must respect floor")
		}
	}
	for i := 0; i < 1000; i++ {
		v := SampleTruncatedNormal(rng, 0.5, 10, 0, 1)
		if v < 0 || v > 1 {
			t.Fatalf("truncated sample out of range: %v", v)
		}
	}
}
