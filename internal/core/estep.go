package core

import (
	"math"

	"tcrowd/internal/ingest"
	"tcrowd/internal/stats"
)

// Bounds keeping the effective variance s = alpha*beta*phi numerically
// sane. Quality q = erf(eps/sqrt(2s)) maps these to (~0, ~1) smoothly.
const (
	minS = 1e-8
	maxS = 1e8
)

// cellVariance returns s = alpha_i * beta_j * phi_k clamped to [minS, maxS].
func (m *Model) cellVariance(i, j, k int) float64 {
	return stats.Clamp(m.Alpha[i]*m.Beta[j]*m.Phi[k], minS, maxS)
}

// logQ returns (ln q, ln(1-q)) for quality q = erf(x), x = eps/sqrt(2s),
// computed stably for extreme x. This sits on the innermost loop of the
// M-step line search, so the common branch spends one erf/erfc plus two
// logs instead of deferring to the general LogErf/LogErfc pair.
func logQ(eps, s float64) (lnQ, lnNotQ float64) {
	x := eps / math.Sqrt(2*s)
	if x < 20 {
		if e := math.Erf(x); e < 0.5 {
			return math.Log(e), math.Log1p(-e)
		}
		ec := math.Erfc(x)
		return math.Log1p(-ec), math.Log(ec)
	}
	return stats.LogErf(x), stats.LogErfc(x)
}

// eStep recomputes every answered cell's posterior truth distribution
// (Eq. 4) given the current parameters. Posteriors are written in place
// (the categorical arena and the ContMu/ContVar fields), so the steady
// state allocates nothing.
func (m *Model) eStep() {
	if w := m.effectiveParallelism(); w > 1 {
		m.eStepParallel(w)
		return
	}
	m.eStepCells(0, m.Table.NumRows()*m.Table.NumCols())
}

// eStepCells updates the posteriors of cell keys [loKey, hiKey).
func (m *Model) eStepCells(loKey, hiKey int) {
	mm := m.Table.NumCols()
	for key := loKey; key < hiKey; key++ {
		lo, hi := m.ilog.GroupRange(key)
		if lo == hi {
			continue
		}
		i, j := key/mm, key%mm
		if m.ilog.Groups[lo].IsCat {
			m.updateCatCell(i, j, lo, hi)
		} else {
			m.updateContCell(i, j, lo, hi)
		}
	}
}

// updateCatCell computes P(T_ij = z) as the normalised product over
// answers of q^{1[a=z]} * ((1-q)/(|L|-1))^{1[a!=z]} (uniform prior): a
// group of Count answers adds Count times its log-likelihood terms.
// Log-probabilities accumulate directly in the cell's posterior slice and
// are normalised in place; groups are sorted by worker, so one worker's
// groups (one per label it answered) reuse the variance triple's erf/log
// work.
//
//tcrowd:noalloc
func (m *Model) updateCatCell(i, j, lo, hi int) {
	post := m.CatPost[i][j]
	for z := range post {
		post[z] = 0
	}
	lnL1 := m.lnL1[j]
	prevW := int32(-1)
	var lnQ, lnWrong float64
	for idx := lo; idx < hi; idx++ {
		g := &m.ilog.Groups[idx]
		if g.W != prevW {
			prevW = g.W
			s := m.cellVariance(i, j, int(g.W))
			var lnNotQ float64
			lnQ, lnNotQ = logQ(m.Opts.Eps, s)
			lnWrong = lnNotQ - lnL1
			// A worker's reputation weight tempers its evidence: the
			// log-likelihood contribution scales by w (w=1 is an exact
			// identity, so the unweighted path is bit-unchanged).
			w := m.weightOf(int(g.W))
			lnQ *= w
			lnWrong *= w
		}
		// Count 1 multiplies exactly, so a served project's one-answer
		// groups add the per-answer terms bit for bit.
		cnt := float64(g.Count)
		right, wrong := cnt*lnQ, cnt*lnWrong
		for z := range post {
			if z == int(g.Label) {
				post[z] += right
			} else {
				post[z] += wrong
			}
		}
	}
	stats.NormalizeLogProbs(post)
}

// updateContCell computes the Gaussian posterior of Eq. 4 in standardized
// units, with the N(0,1) column prior (mu0=0, phi0=1 after z-scoring): a
// group adds w·Count/s to the precision and w·Σz/s to the weighted sum.
//
//tcrowd:noalloc
func (m *Model) updateContCell(i, j, lo, hi int) {
	precision := 1.0 // prior 1/phi0
	weighted := 0.0  // prior mu0/phi0 = 0
	for idx := lo; idx < hi; idx++ {
		g := &m.ilog.Groups[idx]
		s := m.cellVariance(i, j, int(g.W))
		w := m.weightOf(int(g.W))
		sumZ, _ := m.groupZ(g)
		precision += w * float64(g.Count) / s
		weighted += w * sumZ / s
	}
	v := 1 / precision
	m.ContVar[i][j] = v
	m.ContMu[i][j] = weighted * v
}

// groupZ returns the standardized moments Σz and Σz² of a continuous
// group under the current column constants: Count·z̄ and
// M2/std² + Count·z̄², with z̄ the standardized mean. A one-answer group
// has Mean = x and M2 = 0, so they are exactly z and z·z for
// z = Standardize(x), the per-answer values. Groups keep raw moments, so a
// shift of the column constants changes no stored value.
func (m *Model) groupZ(g *ingest.Group) (sumZ, sumZ2 float64) {
	std := m.ColStd[g.J]
	z := stats.Standardize(g.Mean, m.ColMean[g.J], std)
	cnt := float64(g.Count)
	return cnt * z, g.M2/(std*std) + cnt*z*z
}

// groupResid returns Σ(z-mu)² + Count·v over a continuous group's
// standardized answers, from the moments: ΣZ² - 2mu·ΣZ + Count(mu²+v).
// Mathematically it is at least 0; the moment form can dip below zero by
// cancellation when residuals are tiny.
func (m *Model) groupResid(g *ingest.Group, mu, v float64) float64 {
	sumZ, sumZ2 := m.groupZ(g)
	return math.Max(0, sumZ2-2*mu*sumZ+float64(g.Count)*(mu*mu+v))
}

// ELBO returns the MAP evidence lower bound
// E_T[ln P(A, T | params)] + ln P(params) + H(posterior), the quantity this
// MAP-EM ascends; it is the objective traced for Fig. 12a.
func (m *Model) ELBO() float64 {
	n, mm := m.Table.NumRows(), m.Table.NumCols()
	total := m.paramLogPrior(m.Alpha, m.Beta, m.Phi)
	for key := 0; key < n*mm; key++ {
		lo, hi := m.ilog.GroupRange(key)
		if lo == hi {
			continue
		}
		i, j := key/mm, key%mm
		if m.ilog.Groups[lo].IsCat {
			total += m.elboCatCell(i, j, lo, hi)
		} else {
			total += m.elboContCell(i, j, lo, hi)
		}
	}
	return total
}

func (m *Model) elboCatCell(i, j, lo, hi int) float64 {
	post := m.CatPost[i][j]
	l := len(post)
	lnL1 := m.lnL1[j]
	q := 0.0
	// Expected log-likelihood of the answers.
	for idx := lo; idx < hi; idx++ {
		g := &m.ilog.Groups[idx]
		s := m.cellVariance(i, j, int(g.W))
		lnQ, lnNotQ := logQ(m.Opts.Eps, s)
		pCorrect := post[g.Label]
		q += m.weightOf(int(g.W)) * float64(g.Count) * (pCorrect*lnQ + (1-pCorrect)*(lnNotQ-lnL1))
	}
	// Uniform prior term.
	q += -math.Log(float64(l))
	// Posterior entropy.
	return q + stats.ShannonEntropy(post)
}

func (m *Model) elboContCell(i, j, lo, hi int) float64 {
	mu, v := m.ContMu[i][j], m.ContVar[i][j]
	q := 0.0
	for idx := lo; idx < hi; idx++ {
		g := &m.ilog.Groups[idx]
		s := m.cellVariance(i, j, int(g.W))
		q += m.weightOf(int(g.W)) * (-0.5*float64(g.Count)*math.Log(2*math.Pi*s) - m.groupResid(g, mu, v)/(2*s))
	}
	// Standard-normal prior: E[ln N(T; 0, 1)].
	q += -0.5*math.Log(2*math.Pi) - (mu*mu+v)/2
	// Differential entropy of the Gaussian posterior.
	return q + 0.5*math.Log(2*math.Pi*math.E*v)
}
