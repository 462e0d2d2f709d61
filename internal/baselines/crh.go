package baselines

import (
	"math"

	"tcrowd/internal/metrics"
	"tcrowd/internal/stats"
	"tcrowd/internal/tabular"
)

// CRH (Li et al., SIGMOD'14) resolves conflicts in heterogeneous data by
// minimising a weighted loss: iterate (1) truth update — weighted vote for
// categorical cells, weighted mean for continuous cells (distances
// normalised per column by the answers' std) — and (2) worker weight update
// w_u = ln(sum of all losses / loss_u).
type CRH struct{}

// crhMaxIter bounds the alternating iterations.
const crhMaxIter = 30

// Name implements Method.
func (CRH) Name() string { return "CRH" }

// Infer implements Method.
func (CRH) Infer(tbl *tabular.Table, log *tabular.AnswerLog) (metrics.Estimates, error) {
	st := newHeteroState(tbl, log)
	if len(st.obs) == 0 {
		return metrics.NewEstimates(tbl), nil
	}

	for it := 0; it < crhMaxIter; it++ {
		st.updateTruth()
		// Per-worker loss.
		loss := make([]float64, len(st.workerIDs))
		for _, o := range st.obs {
			loss[o.w] += st.distance(o)
		}
		total := stats.Sum(loss) + 1e-12
		delta := 0.0
		for w := range loss {
			nw := math.Log(total / (loss[w] + 1e-9))
			if d := math.Abs(nw - st.weight[w]); d > delta {
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

// heteroObs is a decoded answer for the weighted truth-discovery methods.
type heteroObs struct {
	w, i, j int
	isCat   bool
	label   int
	z       float64 // standardized continuous value
}

// heteroState is the shared machinery of CRH and CATD: decoded answers,
// standardisation constants, per-worker weights and current truth.
type heteroState struct {
	tbl       *tabular.Table
	obs       []heteroObs
	workerIDs []tabular.WorkerID
	weight    []float64
	byCell    map[[2]int][]int
	colMean   []float64
	colStd    []float64
	// current truth per cell.
	catTruth  map[[2]int]int
	contTruth map[[2]int]float64
}

func newHeteroState(tbl *tabular.Table, log *tabular.AnswerLog) *heteroState {
	st := &heteroState{
		tbl:       tbl,
		byCell:    map[[2]int][]int{},
		colMean:   make([]float64, tbl.NumCols()),
		colStd:    make([]float64, tbl.NumCols()),
		catTruth:  map[[2]int]int{},
		contTruth: map[[2]int]float64{},
	}
	answers := log.All()
	perCol := make([][]float64, tbl.NumCols())
	for _, a := range answers {
		if a.Value.Kind == tabular.Number {
			perCol[a.Cell.Col] = append(perCol[a.Cell.Col], a.Value.X)
		}
	}
	for j := range st.colStd {
		st.colStd[j] = 1
		if len(perCol[j]) > 0 {
			m, v := stats.MeanVariance(perCol[j])
			st.colMean[j] = m
			if v > 1e-12 {
				st.colStd[j] = math.Sqrt(v)
			}
		}
	}
	workerIdx := map[tabular.WorkerID]int{}
	for _, a := range answers {
		w, ok := workerIdx[a.Worker]
		if !ok {
			w = len(st.workerIDs)
			workerIdx[a.Worker] = w
			st.workerIDs = append(st.workerIDs, a.Worker)
		}
		o := heteroObs{w: w, i: a.Cell.Row, j: a.Cell.Col}
		if a.Value.Kind == tabular.Label {
			o.isCat = true
			o.label = a.Value.L
		} else {
			o.z = stats.Standardize(a.Value.X, st.colMean[a.Cell.Col], st.colStd[a.Cell.Col])
		}
		key := [2]int{a.Cell.Row, a.Cell.Col}
		st.byCell[key] = append(st.byCell[key], len(st.obs))
		st.obs = append(st.obs, o)
	}
	st.weight = make([]float64, len(st.workerIDs))
	for w := range st.weight {
		st.weight[w] = 1
	}
	return st
}

// updateTruth recomputes the weighted vote / weighted mean per cell.
func (st *heteroState) updateTruth() {
	for key, idxs := range st.byCell {
		first := st.obs[idxs[0]]
		if first.isCat {
			counts := make([]float64, st.tbl.Schema.Columns[key[1]].NumLabels())
			for _, idx := range idxs {
				o := st.obs[idx]
				counts[o.label] += math.Max(st.weight[o.w], 1e-9)
			}
			st.catTruth[key] = argMax(counts)
		} else {
			num, den := 0.0, 0.0
			for _, idx := range idxs {
				o := st.obs[idx]
				w := math.Max(st.weight[o.w], 1e-9)
				num += w * o.z
				den += w
			}
			if den > 0 {
				st.contTruth[key] = num / den
			}
		}
	}
}

// distance is the per-answer loss: 0/1 for categorical, squared
// standardized distance for continuous.
func (st *heteroState) distance(o heteroObs) float64 {
	key := [2]int{o.i, o.j}
	if o.isCat {
		if st.catTruth[key] == o.label {
			return 0
		}
		return 1
	}
	d := o.z - st.contTruth[key]
	return d * d
}

func (st *heteroState) estimates() metrics.Estimates {
	est := metrics.NewEstimates(st.tbl)
	for key, l := range st.catTruth {
		est[key[0]][key[1]] = tabular.LabelValue(l)
	}
	for key, z := range st.contTruth {
		est[key[0]][key[1]] = tabular.NumberValue(stats.Unstandardize(z, st.colMean[key[1]], st.colStd[key[1]]))
	}
	return est
}
