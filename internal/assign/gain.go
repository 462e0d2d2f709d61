package assign

import (
	"math"

	"tcrowd/internal/core"
	"tcrowd/internal/metrics"
	"tcrowd/internal/pool"
	"tcrowd/internal/stats"
	"tcrowd/internal/tabular"
)

// InfoGain computes the inherent information gain of Eq. 6: the expected
// drop in the cell's (uniform) entropy if worker u answers it, under the
// worker model with effective variance s = alpha_i beta_j phi_u. Delta
// entropies are comparable across datatypes even though raw Shannon and
// differential entropies are not (Sec. 5.1).
func InfoGain(m *core.Model, u tabular.WorkerID, c tabular.Cell) float64 {
	s := m.CellVarianceFor(u, c)
	return infoGainWithVariance(m, c, s)
}

// infoGainWithVariance scores a cell for a hypothetical answer of effective
// variance s (shared by inherent and structure-aware gain).
func infoGainWithVariance(m *core.Model, c tabular.Cell, s float64) float64 {
	if post, ok := m.PosteriorCat(c); ok {
		q := math.Erf(m.Opts.Eps / math.Sqrt(2*s))
		return catInfoGain(post, q)
	}
	_, v0, _ := m.PosteriorCont(c)
	return contInfoGain(v0, s)
}

// contInfoGain is Eq. 6 for a continuous cell of posterior variance v0:
// H_d(v0) - H_d(v1) = 0.5 ln(v0/v1), independent of the answer value
// because Gaussian posterior variance is data-independent.
func contInfoGain(v0, s float64) float64 {
	v1 := core.ContVarWithAnswer(v0, s)
	return 0.5 * math.Log(v0/v1)
}

// catInfoGain computes H(post) - E_answer[H(post | answer)] for the
// symmetric-error worker model with correctness probability q.
//
// The naive preposterior costs O(|L|^2); exploiting the model's symmetry
// (all wrong labels share the likelihood r = (1-q)/(|L|-1)) brings it to
// O(|L|): with p = post[z'] and G = sum_z post_z ln post_z, the
// unnormalised posterior after observing answer z' has
// sum_z w_z ln w_z = p*q*ln(p*q) + r*(G - p ln p) + r*(1-p)*ln(r) and
// normaliser C = p*q + (1-p)*r, giving H = ln C - (sum w ln w)/C.
func catInfoGain(post []float64, q float64) float64 {
	l := len(post)
	if l < 2 {
		return 0
	}
	q = stats.Clamp(q, 1e-9, 1-1e-9)
	r := (1 - q) / float64(l-1)
	lnq, lnr := math.Log(q), math.Log(r)

	h0 := 0.0
	g := 0.0
	for _, p := range post {
		if p > 0 {
			plnp := p * math.Log(p)
			g += plnp
			h0 -= plnp
		}
	}

	expH := 0.0
	for _, p := range post {
		cNorm := p*q + (1-p)*r
		if cNorm <= 0 {
			continue
		}
		var t1, plnp float64
		if p > 0 {
			plnp = p * math.Log(p)
			t1 = p * q * (math.Log(p) + lnq)
		}
		t2 := r*(g-plnp) + r*(1-p)*lnr
		h := math.Log(cNorm) - (t1+t2)/cNorm
		expH += cNorm * h
	}
	return h0 - expH
}

// StructInfoGain computes the structure-aware information gain (Sec. 5.2):
// like InfoGain, but the worker's expected error on cell c is conditioned
// on the errors their answers in log show on other cells of row c.Row
// (Eq. 7). With no usable row history or correlations it is InfoGain.
// It is the per-cell reference for StructureIG's cached scoring.
func StructInfoGain(m *core.Model, em *ErrorModel, est metrics.Estimates, log *tabular.AnswerLog, u tabular.WorkerID, c tabular.Cell) float64 {
	if em == nil {
		return InfoGain(m, u, c)
	}
	rowErrs := em.RowErrors(log.RowAnswersByWorker(u, c.Row), est)
	delete(rowErrs, c.Col) // never condition on the target itself
	if len(rowErrs) == 0 {
		return InfoGain(m, u, c)
	}
	if post, ok := m.PosteriorCat(c); ok {
		pWrong, ok := em.CondWrongProb(c.Col, rowErrs)
		if !ok {
			return InfoGain(m, u, c)
		}
		return catInfoGain(post, structQuality(m.CellQuality(u, c), pWrong))
	}
	cond, ok := em.CondErrorNormal(c.Col, rowErrs)
	if !ok {
		return InfoGain(m, u, c)
	}
	return infoGainWithVariance(m, c, structVariance(cond, m.CellVarianceFor(u, c)))
}

// structQuality blends the structural prediction 1 - pWrong with the
// worker's inherent quality: the conditional describes the crowd's
// behaviour on this column pair, the quality describes this worker.
func structQuality(qInherent, pWrong float64) float64 {
	qStruct := 1 - pWrong
	return 0.5 * (qInherent + qStruct)
}

// structVariance is the effective answer variance of a continuous cell:
// the expected squared error E[e^2] = var + mean^2 of the conditional
// error distribution, blended with the inherent variance in log space.
func structVariance(cond stats.Normal, sInherent float64) float64 {
	sStruct := stats.Clamp(cond.Var+cond.Mu*cond.Mu, minEffectiveVariance, maxEffectiveVariance)
	return math.Exp(0.5 * (math.Log(sStruct) + math.Log(sInherent)))
}

// scoreAll computes score(c) for every candidate cell, fanning work across
// parallelism shards of the persistent worker pool — the parallel
// assignment computation discussed at the end of Sec. 5.1. Below 64 cells,
// or with parallelism 1, it scores serially.
func scoreAll(cells []tabular.Cell, parallelism int, score func(tabular.Cell) float64) []float64 {
	out := make([]float64, len(cells))
	if parallelism == 1 || len(cells) < 64 {
		for i, c := range cells {
			out[i] = score(c)
		}
		return out
	}
	pool.Run(parallelism, func(shard int) {
		lo, hi := pool.ChunkBounds(len(cells), parallelism, shard)
		for i := lo; i < hi; i++ {
			out[i] = score(cells[i])
		}
	})
	return out
}
