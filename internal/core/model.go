package core

import (
	"maps"
	"math"
	"slices"

	"tcrowd/internal/metrics"
	"tcrowd/internal/stats"
	"tcrowd/internal/tabular"
)

// Estimates extracts the point estimates T̂_ij: the posterior argmax for
// categorical cells, the posterior mean (mapped back to natural units) for
// continuous cells. Cells without usable answers remain None. The returned
// grid is freshly allocated — callers may retain it across refreshes (the
// platform's immutable generation snapshots do). Hot refresh paths that
// own a reusable grid should use EstimatesInto instead.
func (m *Model) Estimates() metrics.Estimates {
	est := metrics.NewEstimates(m.Table)
	m.EstimatesInto(est)
	return est
}

// EstimatesInto fills a caller-owned grid (shaped for m.Table, e.g. by
// metrics.NewEstimates) with the current point estimates, allocating
// nothing. This is the steady-state path of the assignment engine's
// per-refresh state rebuild.
//
//tcrowd:noalloc
func (m *Model) EstimatesInto(est metrics.Estimates) {
	for i := 0; i < m.Table.NumRows(); i++ {
		row := est[i]
		for j := 0; j < m.Table.NumCols(); j++ {
			row[j] = m.EstimateCell(i, j)
		}
	}
}

// EstimateCell returns the current point estimate of one cell (None when
// unanswered).
//
//tcrowd:noalloc
func (m *Model) EstimateCell(i, j int) tabular.Value {
	if !m.Answered[i][j] {
		return tabular.Value{}
	}
	if post := m.CatPost[i][j]; post != nil {
		return tabular.LabelValue(argMax(post))
	}
	x := stats.Unstandardize(m.ContMu[i][j], m.ColMean[j], m.ColStd[j])
	return tabular.NumberValue(x)
}

func argMax(p []float64) int {
	best := 0
	for i := 1; i < len(p); i++ {
		if p[i] > p[best] {
			best = i
		}
	}
	return best
}

// Freeze returns a read-only copy of what estimate extraction and
// assignment scoring read: posteriors, difficulties, worker variances and
// standardisation constants. It costs O(cells + workers) and never copies
// the answer store (the copy has no Log: never refresh or ingest into it),
// so other goroutines can score a published fit while m keeps streaming.
func (m *Model) Freeze() *Model {
	f := &Model{
		Table:     m.Table,
		Opts:      m.Opts,
		Alpha:     slices.Clone(m.Alpha),
		Beta:      slices.Clone(m.Beta),
		Phi:       slices.Clone(m.Phi),
		workerIdx: maps.Clone(m.workerIdx),
		ColMean:   slices.Clone(m.ColMean),
		ColStd:    slices.Clone(m.ColStd),
		CatPost:   cloneGrid(m.CatPost),
		ContMu:    cloneGrid(m.ContMu),
		ContVar:   cloneGrid(m.ContVar),
		Answered:  cloneGrid(m.Answered),
		// Cached up front so readers never compute (and write) it.
		medianPhi: m.MedianPhi(),
	}
	// cloneGrid copied the posterior slice headers; give the copy its own
	// posteriors, in one arena.
	arena := slices.Concat(slices.Concat(m.CatPost...)...)
	for _, row := range f.CatPost {
		for j, post := range row {
			if post != nil {
				row[j], arena = arena[:len(post):len(post)], arena[len(post):]
			}
		}
	}
	return f
}

// cloneGrid copies a grid's rows into one flat backing array.
func cloneGrid[T any](g [][]T) [][]T {
	out := make([][]T, len(g))
	flat := slices.Concat(g...)
	for i, row := range g {
		out[i], flat = flat[:len(row):len(row)], flat[len(row):]
	}
	return out
}

// PhiFor returns the inferred variance of worker u, falling back to the
// median of all inferred variances (or the initial variance with no
// workers) for workers
// the model has not seen — the sensible prior for a fresh arrival in online
// assignment.
func (m *Model) PhiFor(u tabular.WorkerID) float64 {
	if k, ok := m.workerIdx[u]; ok {
		return m.Phi[k]
	}
	return m.MedianPhi()
}

// MedianPhi returns the population median variance (the initial variance
// when empty).
// The cache is written once at the end of the EM run; reads never mutate,
// so concurrent assignment scoring is race-free.
func (m *Model) MedianPhi() float64 {
	if m.medianPhi > 0 {
		return m.medianPhi
	}
	if len(m.Phi) == 0 {
		return initPhi
	}
	return stats.Median(m.Phi)
}

// WorkerQuality returns the unified quality q_u = erf(eps / sqrt(2 phi_u))
// of Eq. 2.
func (m *Model) WorkerQuality(u tabular.WorkerID) float64 {
	return math.Erf(m.Opts.Eps / math.Sqrt(2*m.PhiFor(u)))
}

// CellVarianceFor returns the effective variance s = alpha_i beta_j phi_u
// that worker u's answer on cell c would carry.
func (m *Model) CellVarianceFor(u tabular.WorkerID, c tabular.Cell) float64 {
	return m.CellVariance(c.Row, c.Col, m.PhiFor(u))
}

// CellVariance is CellVarianceFor for a worker variance phi (PhiFor)
// resolved once by a caller scoring many cells for one worker.
func (m *Model) CellVariance(i, j int, phi float64) float64 {
	return stats.Clamp(m.Alpha[i]*m.Beta[j]*phi, minS, maxS)
}

// CellQuality returns q^u_ij = erf(eps / sqrt(2 alpha_i beta_j phi_u))
// (Sec. 4.2).
func (m *Model) CellQuality(u tabular.WorkerID, c tabular.Cell) float64 {
	return math.Erf(m.Opts.Eps / math.Sqrt(2*m.CellVarianceFor(u, c)))
}

// PosteriorCat returns a copy of the posterior label distribution for a
// categorical cell, falling back to the uniform prior when the cell is
// unanswered. The boolean is false for continuous cells.
func (m *Model) PosteriorCat(c tabular.Cell) ([]float64, bool) {
	col := m.Table.Schema.Columns[c.Col]
	if col.Type != tabular.Categorical {
		return nil, false
	}
	if post := m.CatPost[c.Row][c.Col]; post != nil {
		return append([]float64(nil), post...), true
	}
	return stats.NewCategoricalUniform(col.NumLabels()).P, true
}

// PosteriorCont returns the standardized posterior (mean, variance) of a
// continuous cell, falling back to the N(0,1) prior when unanswered. The
// boolean is false for categorical cells.
func (m *Model) PosteriorCont(c tabular.Cell) (mu, variance float64, ok bool) {
	if m.Table.Schema.Columns[c.Col].Type != tabular.Continuous {
		return 0, 0, false
	}
	if m.Answered[c.Row][c.Col] {
		return m.ContMu[c.Row][c.Col], m.ContVar[c.Row][c.Col], true
	}
	return 0, 1, true
}

// Entropy returns the uniform entropy H(T_ij) of Sec. 5.1: Shannon entropy
// for categorical cells, differential entropy (in standardized units) for
// continuous cells.
func (m *Model) Entropy(c tabular.Cell) float64 {
	if post, ok := m.PosteriorCat(c); ok {
		return stats.ShannonEntropy(post)
	}
	_, v, _ := m.PosteriorCont(c)
	return stats.DifferentialEntropyNormal(v)
}

// ToZ standardizes a natural-unit value of column j.
func (m *Model) ToZ(j int, x float64) float64 {
	return stats.Standardize(x, m.ColMean[j], m.ColStd[j])
}

// CatPosteriorWithAnswer returns the posterior after also observing a
// (hypothetical) answer with label `label` whose effective variance is s —
// the single-cell update behind information-gain scoring ("we update the
// truth distribution T_ij ... mostly and maintain other parameters",
// Sec. 5.1).
func CatPosteriorWithAnswer(post []float64, label int, eps, s float64) []float64 {
	l := len(post)
	lnQ, lnNotQ := logQ(eps, s)
	lnWrong := lnNotQ - math.Log(float64(l-1))
	logp := make([]float64, l)
	for z := range post {
		lp := math.Inf(-1)
		if post[z] > 0 {
			lp = math.Log(post[z])
		}
		if z == label {
			logp[z] = lp + lnQ
		} else {
			logp[z] = lp + lnWrong
		}
	}
	return stats.NormalizeLogProbs(logp)
}

// ContVarWithAnswer returns the posterior variance after also observing one
// answer of variance s: precisions add, independent of the answer's value —
// which is why continuous information gain needs no sampling under fixed
// parameters.
func ContVarWithAnswer(variance, s float64) float64 {
	return 1 / (1/variance + 1/s)
}

// NumAnswersUsed reports how many answers survived the mode filter.
func (m *Model) NumAnswersUsed() int { return m.ilog.Len() }
