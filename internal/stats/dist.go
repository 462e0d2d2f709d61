package stats

import (
	"math"
	"math/rand"
)

// Normal is a univariate normal distribution parameterised by mean and
// variance (the paper works in variances throughout, e.g. phi_u is the
// variance of worker u's answers).
type Normal struct {
	Mu  float64 // mean
	Var float64 // variance, must be > 0 for PDF/Sample
}

// PDF returns the density at x.
func (n Normal) PDF(x float64) float64 {
	return math.Exp(n.LogPDF(x))
}

// LogPDF returns the log-density at x.
func (n Normal) LogPDF(x float64) float64 {
	if n.Var <= 0 {
		if x == n.Mu {
			return math.Inf(1)
		}
		return math.Inf(-1)
	}
	d := x - n.Mu
	return -0.5*math.Log(2*math.Pi*n.Var) - d*d/(2*n.Var)
}

// CDF returns P(X <= x).
func (n Normal) CDF(x float64) float64 {
	if n.Var <= 0 {
		if x < n.Mu {
			return 0
		}
		return 1
	}
	return 0.5 * math.Erfc(-(x-n.Mu)/math.Sqrt(2*n.Var))
}

// Quantile returns the p-quantile.
func (n Normal) Quantile(p float64) float64 {
	return n.Mu + math.Sqrt(n.Var)*NormalQuantile(p)
}

// Sample draws one value using rng.
func (n Normal) Sample(rng *rand.Rand) float64 {
	return n.Mu + math.Sqrt(n.Var)*rng.NormFloat64()
}

// Entropy returns the differential entropy 0.5*ln(2*pi*e*Var) (Sec. 5.1 of
// the paper, H_d). It is -Inf for degenerate distributions.
func (n Normal) Entropy() float64 {
	if n.Var <= 0 {
		return math.Inf(-1)
	}
	return 0.5 * math.Log(2*math.Pi*math.E*n.Var)
}

// Mean returns the mean.
func (n Normal) Mean() float64 { return n.Mu }

// FitNormal estimates a Normal by maximum likelihood (mean, population
// variance) from xs. The variance is floored at minVar to keep downstream
// densities finite on degenerate data.
func FitNormal(xs []float64, minVar float64) Normal {
	m, v := MeanVariance(xs)
	if v < minVar {
		v = minVar
	}
	return Normal{Mu: m, Var: v}
}

// Bernoulli is a {0,1} distribution with success probability P. The paper
// uses it for categorical error indicators (e = 1 means the answer was
// wrong).
type Bernoulli struct {
	P float64
}

// Sample draws a value in {0,1}.
func (b Bernoulli) Sample(rng *rand.Rand) int {
	if rng.Float64() < b.P {
		return 1
	}
	return 0
}

// Entropy returns the Shannon entropy in nats.
func (b Bernoulli) Entropy() float64 {
	return ShannonEntropy([]float64{1 - b.P, b.P})
}

// Mean returns P.
func (b Bernoulli) Mean() float64 { return b.P }

// FitBernoulli estimates P as the fraction of non-zero entries, with
// add-one-half smoothing so downstream conditionals never hit exact 0 or 1.
func FitBernoulli(xs []float64) Bernoulli {
	if len(xs) == 0 {
		return Bernoulli{P: 0.5}
	}
	ones := 0.0
	for _, x := range xs {
		if x != 0 {
			ones++
		}
	}
	return Bernoulli{P: (ones + 0.5) / (float64(len(xs)) + 1)}
}

// Categorical is a distribution over {0, .., len(P)-1}.
type Categorical struct {
	P []float64
}

// NewCategoricalUniform returns the uniform distribution over k labels.
func NewCategoricalUniform(k int) Categorical {
	p := make([]float64, k)
	for i := range p {
		p[i] = 1 / float64(k)
	}
	return Categorical{P: p}
}

// Normalize scales P to sum to one (uniform if the sum is not positive).
func (c Categorical) Normalize() Categorical {
	s := Sum(c.P)
	if s <= 0 {
		return NewCategoricalUniform(len(c.P))
	}
	q := make([]float64, len(c.P))
	for i, p := range c.P {
		q[i] = p / s
	}
	return Categorical{P: q}
}

// Sample draws a label index.
func (c Categorical) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	acc := 0.0
	for i, p := range c.P {
		acc += p
		if u < acc {
			return i
		}
	}
	return len(c.P) - 1
}

// Entropy returns the Shannon entropy in nats (H_s in Sec. 5.1).
func (c Categorical) Entropy() float64 { return ShannonEntropy(c.P) }

// ShannonEntropy returns -sum p*ln(p) over the probability vector ps,
// treating 0*ln(0) as 0. Values are not re-normalised.
func ShannonEntropy(ps []float64) float64 {
	h := 0.0
	for _, p := range ps {
		if p > 0 {
			h -= p * math.Log(p)
		}
	}
	return h
}

// DifferentialEntropyNormal returns 0.5*ln(2*pi*e*variance).
func DifferentialEntropyNormal(variance float64) float64 {
	return Normal{Var: variance}.Entropy()
}

// BivariateNormal models a pair (X, Y) of jointly normal errors; the
// attribute correlation model (Table 5, case continuous-continuous) fits one
// per column pair and uses the conditional Y | X = x.
type BivariateNormal struct {
	MuX, MuY   float64
	VarX, VarY float64
	Cov        float64
}

// FitBivariateNormal estimates the joint by maximum likelihood from paired
// samples. Variances are floored at minVar.
func FitBivariateNormal(xs, ys []float64, minVar float64) BivariateNormal {
	mx, vx := MeanVariance(xs)
	my, vy := MeanVariance(ys)
	if vx < minVar {
		vx = minVar
	}
	if vy < minVar {
		vy = minVar
	}
	return BivariateNormal{MuX: mx, MuY: my, VarX: vx, VarY: vy, Cov: Covariance(xs, ys)}
}

// Rho returns the correlation coefficient, clamped to [-1, 1].
func (b BivariateNormal) Rho() float64 {
	d := math.Sqrt(b.VarX * b.VarY)
	if d == 0 {
		return 0
	}
	return Clamp(b.Cov/d, -1, 1)
}

// ConditionalY returns the distribution of Y given X = x:
// N(muY + rho*sY/sX*(x-muX), (1-rho^2)*VarY).
func (b BivariateNormal) ConditionalY(x float64) Normal {
	rho := b.Rho()
	var mu float64
	if b.VarX > 0 {
		mu = b.MuY + rho*math.Sqrt(b.VarY/b.VarX)*(x-b.MuX)
	} else {
		mu = b.MuY
	}
	v := (1 - rho*rho) * b.VarY
	if v <= 0 {
		v = 1e-12
	}
	return Normal{Mu: mu, Var: v}
}

// Sample draws a correlated pair.
func (b BivariateNormal) Sample(rng *rand.Rand) (x, y float64) {
	x = Normal{Mu: b.MuX, Var: b.VarX}.Sample(rng)
	return x, b.ConditionalY(x).Sample(rng)
}
