package stats

import (
	"math"
	"testing"
)

func almostEqual(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.IsNaN(got) != math.IsNaN(want) {
		t.Fatalf("%s: got %v want %v", msg, got, want)
	}
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v want %v (tol %v)", msg, got, want, tol)
	}
}

func TestMean(t *testing.T) {
	tests := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, tt := range tests {
		almostEqual(t, Mean(tt.xs), tt.want, 1e-12, "Mean")
	}
}

func TestVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	almostEqual(t, Variance(xs), 4, 1e-12, "Variance") // classic textbook sample
	almostEqual(t, SampleVariance(xs), 32.0/7.0, 1e-12, "SampleVariance")
	almostEqual(t, StdDev(xs), 2, 1e-12, "StdDev")
	if Variance(nil) != 0 || SampleVariance([]float64{1}) != 0 {
		t.Fatal("degenerate variance should be 0")
	}
}

func TestMeanVarianceWelford(t *testing.T) {
	xs := []float64{1e9 + 4, 1e9 + 7, 1e9 + 13, 1e9 + 16}
	m, v := MeanVariance(xs)
	almostEqual(t, m, 1e9+10, 1e-3, "Welford mean")
	almostEqual(t, v, 22.5, 1e-6, "Welford variance") // population variance
}

func TestMedian(t *testing.T) {
	tests := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 5, 5}, 5},
	}
	for _, tt := range tests {
		orig := append([]float64(nil), tt.xs...)
		almostEqual(t, Median(tt.xs), tt.want, 1e-12, "Median")
		for i := range orig {
			if orig[i] != tt.xs[i] {
				t.Fatal("Median must not mutate its input")
			}
		}
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 2})
	if lo != -1 || hi != 7 {
		t.Fatalf("MinMax = %v,%v", lo, hi)
	}
	lo, hi = MinMax(nil)
	if lo != 0 || hi != 0 {
		t.Fatal("empty MinMax should be 0,0")
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	almostEqual(t, Pearson(xs, ys), 1, 1e-12, "perfect positive")
	neg := []float64{10, 8, 6, 4, 2}
	almostEqual(t, Pearson(xs, neg), -1, 1e-12, "perfect negative")
	flat := []float64{3, 3, 3, 3, 3}
	almostEqual(t, Pearson(xs, flat), 0, 1e-12, "zero variance")
}

func TestCovariance(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{1, 3, 2, 4}
	// Hand-computed population covariance.
	almostEqual(t, Covariance(xs, ys), 1.0, 1e-12, "Covariance")
	if Covariance(xs, []float64{1}) != 0 {
		t.Fatal("mismatched lengths should return 0")
	}
}

func TestStandardizeRoundTrip(t *testing.T) {
	z := Standardize(17, 10, 2)
	almostEqual(t, z, 3.5, 1e-12, "Standardize")
	almostEqual(t, Unstandardize(z, 10, 2), 17, 1e-12, "Unstandardize")
	if Standardize(5, 5, 0) != 0 {
		t.Fatal("zero std must standardize to 0")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp misbehaves")
	}
}

func TestLogSumExp(t *testing.T) {
	almostEqual(t, LogSumExp([]float64{0, 0}), math.Ln2, 1e-12, "ln 2")
	// Huge magnitudes must not overflow.
	got := LogSumExp([]float64{-1000, -1000, -1000})
	almostEqual(t, got, -1000+math.Log(3), 1e-9, "stable lse")
	if !math.IsInf(LogSumExp(nil), -1) {
		t.Fatal("empty LogSumExp should be -Inf")
	}
}

func TestNormalizeLogProbs(t *testing.T) {
	p := NormalizeLogProbs([]float64{math.Log(1), math.Log(3)})
	almostEqual(t, p[0], 0.25, 1e-12, "p0")
	almostEqual(t, p[1], 0.75, 1e-12, "p1")

	u := NormalizeLogProbs([]float64{math.Inf(-1), math.Inf(-1)})
	almostEqual(t, u[0], 0.5, 1e-12, "uniform fallback")
}

func TestSum(t *testing.T) {
	almostEqual(t, Sum([]float64{1, 2, 3}), 6, 1e-12, "Sum")
	almostEqual(t, Sum(nil), 0, 1e-12, "empty Sum")
}
