// Package stats provides the numerical substrate for T-Crowd: probability
// distributions, special functions, descriptive statistics, entropy measures
// and pseudo-random sampling.
//
// The package is self-contained on top of the Go standard library. All
// formulas needed by the paper (Gauss error function manipulations,
// chi-square quantiles for CATD, bivariate normal conditionals for the
// attribute-correlation model) are implemented here and pinned by golden
// tests against published reference values.
//
// Everything here is deterministic by contract (tcrowd-lint detfold):
// sampling goes through explicitly seeded RNG instances, never the
// globally seeded math/rand source or the wall clock.
//
//tcrowd:deterministic
package stats

import "math"

// Eps is a tolerance used by iterative routines in this package.
const Eps = 1e-12

// Mean returns the arithmetic mean of xs. It returns 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Variance returns the population variance of xs (dividing by n).
// It returns 0 for samples with fewer than one element.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n)
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MeanVariance returns both the mean and the population variance of xs in a
// single pass (Welford's algorithm, numerically stable).
func MeanVariance(xs []float64) (mean, variance float64) {
	n := 0
	m := 0.0
	m2 := 0.0
	for _, x := range xs {
		n++
		d := x - m
		m += d / float64(n)
		m2 += d * (x - m)
	}
	if n == 0 {
		return 0, 0
	}
	return m, m2 / float64(n)
}

// Median returns the median of xs without modifying the input slice.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	cp := make([]float64, n)
	copy(cp, xs)
	insertionSort(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return 0.5 * (cp[n/2-1] + cp[n/2])
}

// insertionSort sorts small slices in place; answer multiplicities per cell
// are tiny (4-10 in the paper's datasets) so this beats sort.Float64s on the
// hot path and avoids the interface allocation.
func insertionSort(xs []float64) {
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		j := i - 1
		for j >= 0 && xs[j] > v {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
}

// Covariance returns the population covariance of the paired samples xs, ys.
// The slices must have equal length.
func Covariance(xs, ys []float64) float64 {
	n := len(xs)
	if n == 0 || n != len(ys) {
		return 0
	}
	mx := Mean(xs)
	my := Mean(ys)
	s := 0.0
	for i := range xs {
		s += (xs[i] - mx) * (ys[i] - my)
	}
	return s / float64(n)
}

// Pearson returns the Pearson correlation coefficient of the paired samples
// xs, ys, as used for the attribute correlation weights W_jk (Eq. 8 of the
// paper). It returns 0 when either sample has zero variance.
func Pearson(xs, ys []float64) float64 {
	sx := StdDev(xs)
	sy := StdDev(ys)
	if sx == 0 || sy == 0 {
		return 0
	}
	return Covariance(xs, ys) / (sx * sy)
}

// MAD returns the median absolute deviation of xs around its median. It is
// the robust scale estimate used to winsorize long-tail crowd errors.
func MAD(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	med := Median(xs)
	devs := make([]float64, len(xs))
	for i, x := range xs {
		devs[i] = math.Abs(x - med)
	}
	return Median(devs)
}

// MADScale is the consistency constant mapping MAD to the standard
// deviation of a normal distribution.
const MADScale = 1.4826

// RobustBounds returns [median - k*sigma, median + k*sigma] where sigma is
// the MAD-based robust scale (falling back to the classic std when MAD is
// 0). Winsorizing at these bounds keeps a handful of spammer outliers from
// dominating second-moment statistics.
func RobustBounds(xs []float64, k float64) (lo, hi float64) {
	med := Median(xs)
	sigma := MAD(xs) * MADScale
	if sigma == 0 {
		sigma = StdDev(xs)
	}
	if sigma == 0 {
		return med, med
	}
	return med - k*sigma, med + k*sigma
}

// Winsorize clamps every element of xs into [lo, hi], returning a new
// slice.
func Winsorize(xs []float64, lo, hi float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = Clamp(x, lo, hi)
	}
	return out
}

// Standardize returns (x - mean) / std. When std is zero it returns 0 so
// that degenerate (constant) columns do not poison downstream math.
func Standardize(x, mean, std float64) float64 {
	if std == 0 {
		return 0
	}
	return (x - mean) / std
}

// Unstandardize inverts Standardize.
func Unstandardize(z, mean, std float64) float64 { return z*std + mean }

// Clamp limits x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// LogSumExp returns log(sum(exp(xs))) computed stably. It returns -Inf for
// an empty slice.
func LogSumExp(xs []float64) float64 {
	if len(xs) == 0 {
		return math.Inf(-1)
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	if math.IsInf(m, -1) {
		return m
	}
	s := 0.0
	for _, x := range xs {
		s += math.Exp(x - m)
	}
	return m + math.Log(s)
}

// NormalizeLogProbs exponentiates and normalises a vector of
// log-probabilities in place, returning it as a proper distribution.
// All-(-Inf) input yields the uniform distribution.
func NormalizeLogProbs(logp []float64) []float64 {
	lse := LogSumExp(logp)
	if math.IsInf(lse, -1) {
		u := 1.0 / float64(len(logp))
		for i := range logp {
			logp[i] = u
		}
		return logp
	}
	for i := range logp {
		logp[i] = math.Exp(logp[i] - lse)
	}
	return logp
}
