package core

import (
	"math"

	"tcrowd/internal/optimize"
	"tcrowd/internal/pool"
	"tcrowd/internal/stats"
)

// mStep maximises Q(alpha, beta, phi) (Eq. 5) by gradient ascent over the
// log-parameters, holding the posteriors fixed. In log space the chain rule
// gives the same per-answer contribution s * dQ_a/ds to d/dlog(alpha_i),
// d/dlog(beta_j) and d/dlog(phi_u), so one pass over the answers yields the
// full gradient — the M-step is O(|A|) per gradient evaluation as analysed
// at the end of Sec. 4.3.
//
// The production path is fused: optimize.MinimizeFused evaluates the
// objective and the gradient in a single pass per line-search trial
// (qFusedRange), sharing the erf/log work of the quality model between the
// two, with all buffers drawn from the model scratch. The fused loops
// iterate the ingest store's sufficient-statistics Groups: every answer in
// a (cell, worker, label) group shares its posterior term and its variance
// triple, so the group collapses to a single evaluation driven by its
// count and moments — an evaluation is O(groups), and the model keeps no
// per-answer copy to re-read. The equivalence tests swap in an unfused
// reference (Options.refMStep) with separate value and gradient passes and
// pin this path against it.
func (m *Model) mStep() {
	if ref := m.Opts.refMStep; ref != nil {
		ref(m)
		return
	}
	pv := optimize.DefaultPositiveVec()
	n, mm, u := len(m.Alpha), len(m.Beta), len(m.Phi)
	fixed := m.Opts.FixDifficulty
	dim := u
	if !fixed {
		dim += n + mm
	}

	scr := &m.scr
	m.ensureMStepScratch(dim)
	m.prepMStepConsts()
	theta := scr.theta[:dim]
	if fixed {
		pv.ToLog(m.Phi, theta)
	} else {
		pv.ToLog(m.Alpha, theta[:n])
		pv.ToLog(m.Beta, theta[n:n+mm])
		pv.ToLog(m.Phi, theta[n+mm:])
	}

	if scr.fg == nil {
		// One closure pair for the model's lifetime: per-call state lives
		// in the scratch, not the capture.
		scr.fg = m.negQFused
		scr.fv = m.negQValueFast
	}
	res := optimize.MinimizeFused(scr.fg, scr.fv, theta, optimize.Options{
		MaxIter:      m.Opts.MStepIter,
		GradTol:      m.gradTol(),
		FuncTol:      m.funcTol(),
		InitStep:     0.5,
		AdaptiveStep: true,
		Work:         &scr.work,
	})
	m.splitTheta(res.X, pv)
	copy(m.Phi, scr.phi)
	if !fixed {
		copy(m.Alpha, scr.alpha)
		copy(m.Beta, scr.beta)
	}
}

// gradTol resolves the M-step gradient-norm stopping tolerance.
func (m *Model) gradTol() float64 {
	if m.Opts.MStepGradTol > 0 {
		return m.Opts.MStepGradTol
	}
	return 1e-7
}

// funcTol resolves the M-step objective-improvement stopping tolerance: a
// sub-default MStepGradTol tightens it in lockstep (an ultra-precise
// gradient tolerance is pointless while the coarser objective cutoff still
// fires first), but a loosened gradient tolerance never loosens it.
func (m *Model) funcTol() float64 {
	if gt := m.Opts.MStepGradTol; gt > 0 && gt < 1e-10 {
		return gt
	}
	return 0 // optimizer default (1e-10)
}

// ensureMStepScratch sizes the M-step buffers (no-op once warm; grown with
// headroom so streaming ingestion doesn't reallocate every batch).
func (m *Model) ensureMStepScratch(dim int) {
	scr := &m.scr
	if cap(scr.theta) < dim {
		scr.theta = make([]float64, dim+dim/4+16)
	}
	if len(scr.alpha) != len(m.Alpha) {
		scr.alpha = make([]float64, len(m.Alpha))
		scr.ga = make([]float64, len(m.Alpha))
	}
	if len(scr.beta) != len(m.Beta) {
		scr.beta = make([]float64, len(m.Beta))
		scr.gb = make([]float64, len(m.Beta))
	}
	if len(scr.phi) != len(m.Phi) {
		scr.phi = make([]float64, len(m.Phi))
	}
	if ng := len(m.ilog.Groups); cap(scr.gc) < ng {
		scr.gc = make([]float64, ng+ng/4+64)
		scr.cnt = make([]float64, ng+ng/4+64)
	}
}

// prepMStepConsts precomputes the per-group quantities that stay constant
// across every objective/gradient evaluation of one M-step (the posteriors
// are frozen): the group's answer count, and one group constant — the
// posterior mass the group puts on its answered label (Count * CatPost)
// for a categorical group, its total squared residual plus posterior
// variance Σ(z-μ)² + Count·v (groupResid) for a continuous one. This
// hoists the posterior double-indexing and all per-answer arithmetic out
// of the line-search loop — each evaluation is O(groups).
func (m *Model) prepMStepConsts() {
	scr := &m.scr
	ng := len(m.ilog.Groups)
	scr.gc, scr.cnt = scr.gc[:ng], scr.cnt[:ng]
	for idx := range m.ilog.Groups {
		g := &m.ilog.Groups[idx]
		cnt := float64(g.Count)
		// A group's objective and gradient terms are all linear in these
		// constants, so scaling them by the worker's reputation weight
		// weights the entire fused M-step without touching the hot loops
		// (w=1 multiplies are exact identities).
		w := m.weightOf(int(g.W))
		scr.cnt[idx] = w * cnt
		if g.IsCat {
			scr.gc[idx] = w * cnt * m.CatPost[g.I][g.J][g.Label]
		} else {
			scr.gc[idx] = w * m.groupResid(g, m.ContMu[g.I][g.J], m.ContVar[g.I][g.J])
		}
	}
}

// splitTheta unpacks a theta vector into the scratch (alpha, beta, phi)
// views.
func (m *Model) splitTheta(theta []float64, pv optimize.PositiveVec) {
	scr := &m.scr
	if m.Opts.FixDifficulty {
		copy(scr.alpha, m.Alpha)
		copy(scr.beta, m.Beta)
		pv.FromLog(theta, scr.phi)
		return
	}
	n, mm := len(m.Alpha), len(m.Beta)
	pv.FromLog(theta[:n], scr.alpha)
	pv.FromLog(theta[n:n+mm], scr.beta)
	pv.FromLog(theta[n+mm:], scr.phi)
}

// negQFused is the fused optimize.FuncGrad of the negated MAP objective:
// one pass computes -Q and writes -dQ/dtheta into grad.
func (m *Model) negQFused(theta, grad []float64) float64 {
	pv := optimize.DefaultPositiveVec()
	m.splitTheta(theta, pv)
	scr := &m.scr
	var ga, gb, gp []float64
	if m.Opts.FixDifficulty {
		// alpha/beta gradients accumulate into scratch and are discarded.
		ga, gb, gp = scr.ga, scr.gb, grad
		zero(ga)
		zero(gb)
		zero(gp)
	} else {
		n, mm := len(m.Alpha), len(m.Beta)
		ga, gb, gp = grad[:n], grad[n:n+mm], grad[n+mm:]
		zero(grad)
	}
	val := m.qFused(scr.alpha, scr.beta, scr.phi, ga, gb, gp)
	for i := range grad {
		grad[i] = -grad[i]
	}
	return -val
}

// negQValueFast is the value-only companion of negQFused, used for
// backtracking retrials where the gradient would be discarded. It computes
// bit-identically the same objective as negQFused (same expressions, same
// accumulation order) from the same precomputed per-answer constants.
func (m *Model) negQValueFast(theta []float64) float64 {
	pv := optimize.DefaultPositiveVec()
	m.splitTheta(theta, pv)
	scr := &m.scr
	return -m.qValueFast(scr.alpha, scr.beta, scr.phi)
}

// qValueFast evaluates the MAP objective without gradients, with the same
// memoisation and per-group constants as the fused pass.
func (m *Model) qValueFast(alpha, beta, phi []float64) float64 {
	if w := m.effectiveParallelism(); w > 1 {
		m.ensureShards(w)
		scr := &m.scr
		ng := len(m.ilog.Groups)
		pool.Run(w, func(shard int) {
			lo, hi := pool.ChunkBounds(ng, w, shard)
			scr.shardVal[shard] = m.qValueFastRange(alpha, beta, phi, lo, hi)
		})
		val := 0.0
		for s := 0; s < w; s++ {
			val += scr.shardVal[s]
		}
		return m.paramLogPrior(alpha, beta, phi) + val
	}
	return m.paramLogPrior(alpha, beta, phi) + m.qValueFastRange(alpha, beta, phi, 0, len(m.ilog.Groups))
}

// qValueFastRange mirrors qFusedRange's value accumulation exactly, minus
// the gradient work.
//
//tcrowd:noalloc
func (m *Model) qValueFastRange(alpha, beta, phi []float64, lo, hi int) float64 {
	scr := &m.scr
	eps := m.Opts.Eps
	q := 0.0
	var prevI, prevJ, prevW int32 = -1, -1, -1
	var twoS, lnQ, lnNotQ, ln2pis float64
	for idx := lo; idx < hi; idx++ {
		g := &m.ilog.Groups[idx]
		if g.I != prevI || g.J != prevJ || g.W != prevW {
			prevI, prevJ, prevW = g.I, g.J, g.W
			s := stats.Clamp(alpha[g.I]*beta[g.J]*phi[g.W], minS, maxS)
			if g.IsCat {
				lnQ, lnNotQ = logQ(eps, s)
			} else {
				twoS = 2 * s
				ln2pis = math.Log(2 * math.Pi * s)
			}
		}
		if g.IsCat {
			sumP := scr.gc[idx]
			q += sumP*lnQ + (scr.cnt[idx]-sumP)*(lnNotQ-m.lnL1[g.J])
		} else {
			q += -0.5*scr.cnt[idx]*ln2pis - scr.gc[idx]/twoS
		}
	}
	return q
}

// qFused evaluates the MAP objective (Eq. 5 plus parameter log-priors) AND
// accumulates its log-space gradient into (ga, gb, gp) in one pass over
// the sufficient-statistics groups.
func (m *Model) qFused(alpha, beta, phi []float64, ga, gb, gp []float64) float64 {
	if w := m.effectiveParallelism(); w > 1 {
		return m.qFusedParallel(alpha, beta, phi, ga, gb, gp, w)
	}
	m.priorGradLog(alpha, beta, phi, ga, gb, gp)
	val := m.qFusedRange(alpha, beta, phi, 0, len(m.ilog.Groups), ga, gb, gp)
	return m.paramLogPrior(alpha, beta, phi) + val
}

// qFusedParallel shards qFusedRange over group ranges on the worker pool;
// per-shard partial values and gradients reduce in shard order (results
// deterministic for a fixed worker count).
func (m *Model) qFusedParallel(alpha, beta, phi []float64, ga, gb, gp []float64, workers int) float64 {
	m.ensureShards(workers)
	scr := &m.scr
	ng := len(m.ilog.Groups)
	pool.Run(workers, func(shard int) {
		lo, hi := pool.ChunkBounds(ng, workers, shard)
		sga, sgb, sgp := scr.shardGA[shard], scr.shardGB[shard], scr.shardGP[shard]
		zero(sga)
		zero(sgb)
		zero(sgp)
		scr.shardVal[shard] = m.qFusedRange(alpha, beta, phi, lo, hi, sga, sgb, sgp)
	})
	m.priorGradLog(alpha, beta, phi, ga, gb, gp)
	val := 0.0
	for s := 0; s < workers; s++ {
		val += scr.shardVal[s]
		for i := range ga {
			ga[i] += scr.shardGA[s][i]
		}
		for j := range gb {
			gb[j] += scr.shardGB[s][j]
		}
		for k := range gp {
			gp[k] += scr.shardGP[s][k]
		}
	}
	return m.paramLogPrior(alpha, beta, phi) + val
}

// catTerms computes every quality-model transcendental a categorical
// answer needs, sharing the erf/erfc evaluations between the objective and
// the gradient: (ln q, ln(1-q)) for the value term and the gradient
// ratios D/q, D/(1-q) with D = x e^{-x^2}/sqrt(pi), so the per-answer
// gradient is g = (1-p) D/(1-q) - p D/q. In the common branch (x < 20)
// the ratios are computed directly from erf/erfc — one exp, no logs
// beyond the value's own; the deep tail falls back to log space where
// erfc would underflow.
func catTerms(eps, s float64) (lnQ, lnNotQ, dOverQ, dOverNotQ float64) {
	x := eps / math.Sqrt(2*s)
	if x < 20 {
		e := math.Erf(x)
		ec := math.Erfc(x)
		if e < 0.5 {
			lnQ, lnNotQ = math.Log(e), math.Log1p(-e)
		} else {
			lnQ, lnNotQ = math.Log1p(-ec), math.Log(ec)
		}
		d := x * math.Exp(-x*x) / math.SqrtPi
		return lnQ, lnNotQ, d / e, d / ec
	}
	lnQ, lnNotQ = stats.LogErf(x), stats.LogErfc(x)
	lnD := math.Log(x/math.SqrtPi) - x*x
	return lnQ, lnNotQ, math.Exp(lnD - lnQ), math.Exp(lnD - lnNotQ)
}

// qFusedRange is the fused hot loop: for sufficient-statistics groups
// [lo, hi) it returns the data term of Q and accumulates the per-group
// gradient contribution g = Σ_a s * dQ_a/ds into (ga, gb, gp).
//
// Per answer a (Eq. 5), s*dQ_a/ds is -1/2 + (d²+v)/(2s) for a continuous
// answer with residual d = z-μ. For a categorical one, with x = eps/sqrt(2s)
// and q = erf(x), dq/ds = -(x/sqrt(pi)) e^{-x²} / s, so s*dQ_a/ds =
// (x e^{-x²}/sqrt(pi)) * [(1-p)/(1-q) - p/q] (see catTerms). A group's
// answers share their posterior term and variance triple, so the whole
// group contributes sumP*lnq + (cnt-sumP)*(ln(1-q)-ln(L-1)) with sumP =
// cnt*p (categorical), or -cnt*ln(2πs)/2 - Σdv/(2s) with Σdv precomputed
// from the group's moments (continuous). The expensive transcendentals are computed once
// per variance triple and shared between value and gradient; consecutive
// groups with the same (row, column, worker) triple (adjacent label runs)
// reuse them outright.
//
//tcrowd:noalloc
func (m *Model) qFusedRange(alpha, beta, phi []float64, lo, hi int, ga, gb, gp []float64) float64 {
	scr := &m.scr
	eps := m.Opts.Eps
	q := 0.0
	var prevI, prevJ, prevW int32 = -1, -1, -1
	var twoS, lnQ, lnNotQ, dOverQ, dOverNotQ, ln2pis float64
	var clamped bool
	for idx := lo; idx < hi; idx++ {
		gr := &m.ilog.Groups[idx]
		if gr.I != prevI || gr.J != prevJ || gr.W != prevW {
			prevI, prevJ, prevW = gr.I, gr.J, gr.W
			raw := alpha[gr.I] * beta[gr.J] * phi[gr.W]
			clamped = raw < minS || raw > maxS
			s := stats.Clamp(raw, minS, maxS)
			if gr.IsCat {
				lnQ, lnNotQ, dOverQ, dOverNotQ = catTerms(eps, s)
			} else {
				twoS = 2 * s
				ln2pis = math.Log(2 * math.Pi * s)
			}
		}
		var g float64
		if gr.IsCat {
			sumP := scr.gc[idx]
			rest := scr.cnt[idx] - sumP
			q += sumP*lnQ + rest*(lnNotQ-m.lnL1[gr.J])
			g = rest*dOverNotQ - sumP*dOverQ
		} else {
			dv := scr.gc[idx]
			q += -0.5*scr.cnt[idx]*ln2pis - dv/twoS
			g = -0.5*scr.cnt[idx] + dv/twoS
		}
		if clamped {
			// At the variance clamp the objective is flat; do not push
			// parameters further out.
			g = 0
		}
		ga[gr.I] += g
		gb[gr.J] += g
		gp[gr.W] += g
	}
	return q
}

func zero(xs []float64) {
	for i := range xs {
		xs[i] = 0
	}
}

// paramLogPrior returns the log-density of the parameter priors: a weak
// inverse-gamma on each phi_u and N(0, sigma^2) shrinkage on ln(alpha_i),
// ln(beta_j). Constant offsets are dropped.
func (m *Model) paramLogPrior(alpha, beta, phi []float64) float64 {
	o := m.Opts
	lp := 0.0
	for _, p := range phi {
		lp += -(o.PhiPriorA+1)*math.Log(p) - o.PhiPriorB/p
	}
	s2 := o.DiffPriorSigma * o.DiffPriorSigma
	if !o.FixDifficulty {
		for _, a := range alpha {
			la := math.Log(a)
			lp -= la * la / (2 * s2)
		}
		for _, b := range beta {
			lb := math.Log(b)
			lp -= lb * lb / (2 * s2)
		}
	}
	return lp
}

// priorGradLog accumulates the parameter-prior gradients in log space.
func (m *Model) priorGradLog(alpha, beta, phi, ga, gb, gp []float64) {
	o := m.Opts
	for k, p := range phi {
		gp[k] += -(o.PhiPriorA + 1) + o.PhiPriorB/p
	}
	if !o.FixDifficulty {
		s2 := o.DiffPriorSigma * o.DiffPriorSigma
		for i, a := range alpha {
			ga[i] -= math.Log(a) / s2
		}
		for j, b := range beta {
			gb[j] -= math.Log(b) / s2
		}
	}
}
