package core

import (
	"math"

	"tcrowd/internal/ingest"
	"tcrowd/internal/optimize"
	"tcrowd/internal/pool"
	"tcrowd/internal/stats"
)

// The unfused reference M-step: gradient ascent with separate objective
// and gradient passes (qValue / qGradLog), fresh allocations, no
// transcendental memoisation and no precomputed per-group constants — the
// ground truth the fused engine is verified against. A group of Count
// answers contributes Count times the paper's per-answer term, and a
// continuous group's mean squared residual comes from its moments as
// (z̄-μ)² + M2/(std²·Count), a different form from the fused path's
// moment expansion. For one-answer groups both reduce to the per-answer
// terms.

// mStepReference is the reference M-step with the optimizer's line-search
// step memory.
func mStepReference(m *Model) { m.mStepRef(true) }

// mStepSeed reproduces the seed engine's original optimizer exactly: the
// reference passes and a fixed-step line search (no step memory).
func mStepSeed(m *Model) { m.mStepRef(false) }

func (m *Model) mStepRef(adaptive bool) {
	pv := optimize.DefaultPositiveVec()
	n, mm, u := len(m.Alpha), len(m.Beta), len(m.Phi)

	fixed := m.Opts.FixDifficulty
	dim := u
	if !fixed {
		dim += n + mm
	}
	theta0 := make([]float64, dim)
	if fixed {
		pv.ToLog(m.Phi, theta0)
	} else {
		pv.ToLog(m.Alpha, theta0[:n])
		pv.ToLog(m.Beta, theta0[n:n+mm])
		pv.ToLog(m.Phi, theta0[n+mm:])
	}

	// split maps a theta vector to (alpha, beta, phi) views without copies.
	alpha := make([]float64, n)
	beta := make([]float64, mm)
	phi := make([]float64, u)
	split := func(theta []float64) {
		if fixed {
			copy(alpha, m.Alpha)
			copy(beta, m.Beta)
			pv.FromLog(theta, phi)
			return
		}
		pv.FromLog(theta[:n], alpha)
		pv.FromLog(theta[n:n+mm], beta)
		pv.FromLog(theta[n+mm:], phi)
	}

	negQ := func(theta []float64) float64 {
		split(theta)
		return -m.qValue(alpha, beta, phi)
	}
	negGrad := func(theta, grad []float64) {
		split(theta)
		ga, gb, gp := m.qGradLog(alpha, beta, phi)
		k := 0
		if !fixed {
			for i := 0; i < n; i++ {
				grad[k] = -ga[i]
				k++
			}
			for j := 0; j < mm; j++ {
				grad[k] = -gb[j]
				k++
			}
		}
		for w := 0; w < u; w++ {
			grad[k] = -gp[w]
			k++
		}
	}

	res := optimize.Minimize(negQ, negGrad, theta0, optimize.Options{
		MaxIter:      m.Opts.MStepIter,
		GradTol:      m.gradTol(),
		FuncTol:      m.funcTol(),
		InitStep:     0.5,
		AdaptiveStep: adaptive,
	})
	split(res.X)
	copy(m.Phi, phi)
	if !fixed {
		copy(m.Alpha, alpha)
		copy(m.Beta, beta)
	}
}

// refMeanSq returns a continuous group's mean squared residual
// Σ(z-mu)²/Count under the current column constants.
func (m *Model) refMeanSq(g *ingest.Group, mu float64) float64 {
	std := m.ColStd[g.J]
	d := stats.Standardize(g.Mean, m.ColMean[g.J], std) - mu
	return d*d + g.M2/(std*std*float64(g.Count))
}

// qValue evaluates the MAP objective: Q (Eq. 5) plus the parameter
// log-priors, posteriors fixed. Truth-prior terms are constant w.r.t. the
// parameters and omitted.
func (m *Model) qValue(alpha, beta, phi []float64) float64 {
	if w := m.effectiveParallelism(); w > 1 {
		return m.qValueParallel(alpha, beta, phi, w)
	}
	return m.paramLogPrior(alpha, beta, phi) + m.qValueRange(alpha, beta, phi, 0, len(m.ilog.Groups))
}

// qValueRange evaluates the data term of Q over the group range [lo, hi).
func (m *Model) qValueRange(alpha, beta, phi []float64, lo, hi int) float64 {
	q := 0.0
	for idx := lo; idx < hi; idx++ {
		g := &m.ilog.Groups[idx]
		s := stats.Clamp(alpha[g.I]*beta[g.J]*phi[g.W], minS, maxS)
		w := m.weightOf(int(g.W)) * float64(g.Count)
		if g.IsCat {
			post := m.CatPost[g.I][g.J]
			l := len(post)
			lnQ, lnNotQ := logQ(m.Opts.Eps, s)
			p := post[g.Label]
			q += w * (p*lnQ + (1-p)*(lnNotQ-math.Log(float64(l-1))))
		} else {
			mu, v := m.ContMu[g.I][g.J], m.ContVar[g.I][g.J]
			q += w * (-0.5*math.Log(2*math.Pi*s) - (m.refMeanSq(g, mu)+v)/(2*s))
		}
	}
	return q
}

// qValueParallel shards the objective over group ranges.
func (m *Model) qValueParallel(alpha, beta, phi []float64, workers int) float64 {
	partial := make([]float64, workers)
	pool.Run(workers, func(w int) {
		lo, hi := pool.ChunkBounds(len(m.ilog.Groups), workers, w)
		partial[w] = m.qValueRange(alpha, beta, phi, lo, hi)
	})
	sum := m.paramLogPrior(alpha, beta, phi)
	for _, p := range partial {
		sum += p
	}
	return sum
}

// qGradLog returns dQ/dlog(alpha), dQ/dlog(beta), dQ/dlog(phi). Each answer
// contributes the same scalar g = s * dQ_a/ds to all three of its
// coordinates (derivation at qFusedRange).
func (m *Model) qGradLog(alpha, beta, phi []float64) (ga, gb, gp []float64) {
	if w := m.effectiveParallelism(); w > 1 {
		return m.qGradLogParallel(alpha, beta, phi, w)
	}
	ga = make([]float64, len(alpha))
	gb = make([]float64, len(beta))
	gp = make([]float64, len(phi))
	m.priorGradLog(alpha, beta, phi, ga, gb, gp)
	m.qGradLogRange(alpha, beta, phi, 0, len(m.ilog.Groups), ga, gb, gp)
	return ga, gb, gp
}

// qGradLogRange accumulates the data-term gradients for groups [lo, hi).
func (m *Model) qGradLogRange(alpha, beta, phi []float64, lo, hi int, ga, gb, gp []float64) {
	for idx := lo; idx < hi; idx++ {
		gr := &m.ilog.Groups[idx]
		s := alpha[gr.I] * beta[gr.J] * phi[gr.W]
		clamped := s < minS || s > maxS
		s = stats.Clamp(s, minS, maxS)
		var g float64
		if gr.IsCat {
			p := m.CatPost[gr.I][gr.J][gr.Label]
			_, _, dOverQ, dOverNotQ := catTerms(m.Opts.Eps, s)
			g = (1-p)*dOverNotQ - p*dOverQ
		} else {
			mu, v := m.ContMu[gr.I][gr.J], m.ContVar[gr.I][gr.J]
			g = -0.5 + (m.refMeanSq(gr, mu)+v)/(2*s)
		}
		g *= m.weightOf(int(gr.W)) * float64(gr.Count)
		if clamped {
			// At the variance clamp the objective is flat; do not push
			// parameters further out.
			g = 0
		}
		ga[gr.I] += g
		gb[gr.J] += g
		gp[gr.W] += g
	}
}

// qGradLogParallel shards the gradient over group ranges with per-shard
// accumulators reduced at the end.
func (m *Model) qGradLogParallel(alpha, beta, phi []float64, workers int) (ga, gb, gp []float64) {
	type grads struct {
		a, b, p []float64
	}
	partial := make([]grads, workers)
	pool.Run(workers, func(w int) {
		lo, hi := pool.ChunkBounds(len(m.ilog.Groups), workers, w)
		g := grads{
			a: make([]float64, len(alpha)),
			b: make([]float64, len(beta)),
			p: make([]float64, len(phi)),
		}
		m.qGradLogRange(alpha, beta, phi, lo, hi, g.a, g.b, g.p)
		partial[w] = g
	})

	ga = make([]float64, len(alpha))
	gb = make([]float64, len(beta))
	gp = make([]float64, len(phi))
	m.priorGradLog(alpha, beta, phi, ga, gb, gp)
	for _, g := range partial {
		if g.a == nil {
			continue
		}
		for i := range ga {
			ga[i] += g.a[i]
		}
		for j := range gb {
			gb[j] += g.b[j]
		}
		for k := range gp {
			gp[k] += g.p[k]
		}
	}
	return ga, gb, gp
}

func geoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 1
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
