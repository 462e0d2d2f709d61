package stats

import (
	"math"
	"testing"
)

func TestLogErfMatchesNaive(t *testing.T) {
	for _, x := range []float64{1e-8, 1e-3, 0.1, 0.5, 1, 2, 5} {
		want := math.Log(math.Erf(x))
		almostEqual(t, LogErf(x), want, 1e-12, "LogErf small/medium")
	}
}

func TestLogErfLargeArgument(t *testing.T) {
	// For large x, ln erf(x) ~ -erfc(x); the naive log would round to 0
	// exactly. Check against the asymptotic erfc expansion.
	x := 8.0
	erfc := math.Exp(-x*x) / (x * math.SqrtPi) * (1 - 1/(2*x*x))
	almostEqual(t, LogErf(x), -erfc, 1e-30, "LogErf large")
	if LogErf(0) != math.Inf(-1) || LogErf(-1) != math.Inf(-1) {
		t.Fatal("LogErf must be -Inf for x <= 0")
	}
}

func TestLogErfcMatchesNaive(t *testing.T) {
	for _, x := range []float64{-2, -0.5, 0, 0.5, 1, 3, 10, 19} {
		want := math.Log(math.Erfc(x))
		almostEqual(t, LogErfc(x), want, 1e-9, "LogErfc moderate")
	}
}

func TestLogErfcAsymptotic(t *testing.T) {
	// erfc underflows near x=27; the asymptotic branch must still produce
	// finite, monotone values.
	prev := LogErfc(20)
	for _, x := range []float64{25, 30, 40, 100} {
		got := LogErfc(x)
		if math.IsInf(got, 0) || math.IsNaN(got) {
			t.Fatalf("LogErfc(%v) not finite: %v", x, got)
		}
		if got >= prev {
			t.Fatalf("LogErfc must decrease: f(%v)=%v >= %v", x, got, prev)
		}
		prev = got
	}
	// Branch agreement: at x=20 erfc is still representable (~5e-176), so
	// the naive log and the asymptotic expansion must coincide.
	naive := math.Log(math.Erfc(20))
	ix2 := 1 / (20.0 * 20.0)
	asym := -400 - math.Log(20*math.Sqrt(math.Pi)) + math.Log(1-0.5*ix2+0.75*ix2*ix2)
	almostEqual(t, naive, asym, 1e-5, "branch agreement at x=20")
}

func TestNormalQuantile(t *testing.T) {
	// Golden values from standard normal tables.
	almostEqual(t, NormalQuantile(0.5), 0, 1e-12, "median")
	almostEqual(t, NormalQuantile(0.975), 1.959963985, 1e-6, "97.5%")
	almostEqual(t, NormalQuantile(0.84134474), 1.0, 1e-5, "84.13%")
	almostEqual(t, NormalQuantile(0.05), -1.644853627, 1e-6, "5%")
	defer func() {
		if recover() == nil {
			t.Fatal("NormalQuantile(0) should panic")
		}
	}()
	NormalQuantile(0)
}

func TestGammaIncLowerGolden(t *testing.T) {
	// Reference values computed from the definition (e.g. P(1,x)=1-e^-x).
	almostEqual(t, GammaIncLower(1, 1), 1-math.Exp(-1), 1e-12, "P(1,1)")
	almostEqual(t, GammaIncLower(1, 5), 1-math.Exp(-5), 1e-12, "P(1,5)")
	// P(0.5, x) = erf(sqrt(x)).
	for _, x := range []float64{0.1, 1, 2, 7} {
		almostEqual(t, GammaIncLower(0.5, x), math.Erf(math.Sqrt(x)), 1e-10, "P(0.5,x)=erf")
	}
	if !math.IsNaN(GammaIncLower(-1, 1)) || !math.IsNaN(GammaIncLower(0, 1)) {
		t.Fatal("invalid a must give NaN")
	}
	if GammaIncLower(2, 0) != 0 {
		t.Fatal("x=0 boundary wrong")
	}
}

func TestChiSquareCDFGolden(t *testing.T) {
	// Chi-square table: P(X <= 3.841) = 0.95 for k=1; P(X <= 5.991) = 0.95
	// for k=2; P(X <= 18.307) = 0.95 for k=10.
	almostEqual(t, ChiSquareCDF(3.841458821, 1), 0.95, 1e-6, "k=1")
	almostEqual(t, ChiSquareCDF(5.991464547, 2), 0.95, 1e-6, "k=2")
	almostEqual(t, ChiSquareCDF(18.30703805, 10), 0.95, 1e-6, "k=10")
	if ChiSquareCDF(-1, 3) != 0 {
		t.Fatal("negative x must have CDF 0")
	}
}

func TestChiSquareQuantileInvertsCDF(t *testing.T) {
	for _, k := range []float64{1, 2, 5, 10, 37, 100} {
		for _, p := range []float64{0.025, 0.05, 0.5, 0.9, 0.975, 0.999} {
			x := ChiSquareQuantile(p, k)
			almostEqual(t, ChiSquareCDF(x, k), p, 1e-8, "quantile/CDF round trip")
		}
	}
	// Golden: chi2_{0.975}(1) = 5.0239 (CATD's default confidence level).
	almostEqual(t, ChiSquareQuantile(0.975, 1), 5.023886187, 1e-5, "0.975 k=1")
	if ChiSquareQuantile(0, 3) != 0 {
		t.Fatal("p=0 should be 0")
	}
}
