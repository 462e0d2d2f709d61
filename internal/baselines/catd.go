package baselines

import (
	"tcrowd/internal/metrics"
	"tcrowd/internal/stats"
	"tcrowd/internal/tabular"
)

// CATD (Li et al., PVLDB'15) weights each source by the upper bound of the
// (1-alpha) confidence interval of its error variance, designed for the
// long-tail regime where most workers give few answers: a worker with n_u
// answers and accumulated loss L_u gets weight
// chi^2_{alpha/2, n_u} / L_u, so sparsely observed workers are discounted
// toward their confidence bound rather than trusted at face value.
type CATD struct{}

const (
	// catdMaxIter bounds the alternating iterations.
	catdMaxIter = 30
	// catdAlpha is the confidence level.
	catdAlpha float64 = 0.05
)

// Name implements Method.
func (CATD) Name() string { return "CATD" }

// Infer implements Method.
func (CATD) Infer(tbl *tabular.Table, log *tabular.AnswerLog) (metrics.Estimates, error) {
	st := newHeteroState(tbl, log)
	if len(st.obs) == 0 {
		return metrics.NewEstimates(tbl), nil
	}

	// Answer counts per worker; the chi-square quantile per worker is
	// fixed across iterations.
	counts := make([]float64, len(st.workerIDs))
	for _, o := range st.obs {
		counts[o.w]++
	}
	quantile := make([]float64, len(st.workerIDs))
	for w := range quantile {
		quantile[w] = stats.ChiSquareQuantile(catdAlpha/2, counts[w])
	}

	for it := 0; it < catdMaxIter; it++ {
		st.updateTruth()
		loss := make([]float64, len(st.workerIDs))
		for _, o := range st.obs {
			loss[o.w] += st.distance(o)
		}
		delta := 0.0
		for w := range loss {
			nw := quantile[w] / (loss[w] + 1e-6)
			if d := absf(nw - st.weight[w]); d > delta {
				delta = d
			}
			st.weight[w] = nw
		}
		if delta < 1e-7 && it > 0 {
			break
		}
	}
	st.updateTruth()
	return st.estimates(), nil
}
