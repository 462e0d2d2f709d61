package stats

import "math"

// This file implements the special functions the paper's math depends on:
// stable logarithms of the Gauss error function (worker quality
// q = erf(eps/sqrt(2*alpha*beta*phi)) appears inside log-likelihoods), the
// regularized incomplete gamma function, and quantiles of the normal and
// chi-square distributions (CATD weights workers by chi-square quantiles).

// LogErf returns ln(erf(x)) for x > 0, stable for both tiny and large x.
// For large x, erf(x) rounds to 1 and the naive log loses all precision;
// we switch to log1p(-erfc(x)).
func LogErf(x float64) float64 {
	if x <= 0 {
		return math.Inf(-1)
	}
	e := math.Erf(x)
	if e < 0.5 {
		return math.Log(e)
	}
	return math.Log1p(-math.Erfc(x))
}

// LogErfc returns ln(erfc(x)) = ln(1 - erf(x)), stable for large x where
// erfc underflows. For x > 20 it uses the asymptotic expansion
// erfc(x) ~ exp(-x^2)/(x*sqrt(pi)) * (1 - 1/(2x^2) + 3/(4x^4)).
func LogErfc(x float64) float64 {
	if x < 20 {
		e := math.Erfc(x)
		if e > 0 {
			return math.Log(e)
		}
	}
	if x <= 0 {
		// erfc in [1,2] here; plain log is exact enough.
		return math.Log(math.Erfc(x))
	}
	ix2 := 1 / (x * x)
	series := 1 - 0.5*ix2 + 0.75*ix2*ix2
	return -x*x - math.Log(x*math.Sqrt(math.Pi)) + math.Log(series)
}

// DErfDx returns d/dx erf(x) = 2/sqrt(pi) * exp(-x^2).
func DErfDx(x float64) float64 {
	return 2 / math.SqrtPi * math.Exp(-x*x)
}

// NormalQuantile returns the p-quantile of the standard normal distribution
// using the inverse error function. It panics for p outside (0, 1).
func NormalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic("stats: NormalQuantile requires 0 < p < 1")
	}
	return math.Sqrt2 * math.Erfinv(2*p-1)
}

// GammaIncLower returns the regularized lower incomplete gamma function
// P(a, x) = gamma(a, x)/Gamma(a) for a > 0, x >= 0.
//
// Numerical Recipes style: series expansion for x < a+1, continued fraction
// for x >= a+1.
func GammaIncLower(a, x float64) float64 {
	switch {
	case a <= 0 || x < 0 || math.IsNaN(a) || math.IsNaN(x):
		return math.NaN()
	case x == 0:
		return 0
	case math.IsInf(x, 1):
		return 1
	}
	if x < a+1 {
		return gammaSeries(a, x)
	}
	return 1 - gammaContinuedFraction(a, x)
}

// gammaSeries evaluates P(a,x) by its power series, valid for x < a+1.
func gammaSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1.0 / a
	del := sum
	for i := 0; i < 500; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*Eps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// gammaContinuedFraction evaluates Q(a,x) by its continued fraction
// (modified Lentz), valid for x >= a+1.
func gammaContinuedFraction(a, x float64) float64 {
	const tiny = 1e-300
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < Eps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// ChiSquareCDF returns P(X <= x) for X ~ chi-square with k degrees of
// freedom.
func ChiSquareCDF(x float64, k float64) float64 {
	if x <= 0 {
		return 0
	}
	return GammaIncLower(k/2, x/2)
}

// ChiSquareQuantile returns the p-quantile of the chi-square distribution
// with k > 0 degrees of freedom, computed by monotone bisection refined with
// Newton steps on the regularized incomplete gamma function. CATD uses
// chi-square quantiles to upper-bound worker reliability on sparse data.
func ChiSquareQuantile(p, k float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 || k <= 0 {
		panic("stats: ChiSquareQuantile requires 0 < p < 1 and k > 0")
	}
	// Wilson-Hilferty starting point.
	z := NormalQuantile(p)
	t := 1 - 2/(9*k) + z*math.Sqrt(2/(9*k))
	x := k * t * t * t
	if x <= 0 {
		x = 1e-8
	}
	lo, hi := 0.0, math.Max(4*x, 4*k+40)
	for ChiSquareCDF(hi, k) < p {
		hi *= 2
	}
	for i := 0; i < 200; i++ {
		f := ChiSquareCDF(x, k) - p
		if math.Abs(f) < 1e-12 {
			break
		}
		if f > 0 {
			hi = x
		} else {
			lo = x
		}
		pdf := chiSquarePDF(x, k)
		if pdf > 1e-300 {
			nx := x - f/pdf
			if nx > lo && nx < hi {
				x = nx
				continue
			}
		}
		x = 0.5 * (lo + hi)
	}
	return x
}

func chiSquarePDF(x, k float64) float64 {
	if x <= 0 {
		return 0
	}
	lg, _ := math.Lgamma(k / 2)
	return math.Exp((k/2-1)*math.Log(x) - x/2 - k/2*math.Ln2 - lg)
}
