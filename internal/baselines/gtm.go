package baselines

import (
	"tcrowd/internal/metrics"
	"tcrowd/internal/stats"
	"tcrowd/internal/tabular"
)

// GTM is the Gaussian Truth Model of Zhao & Han (QDB'12) for continuous
// data: truth ~ N(mu0, sigma0^2), answers ~ N(truth, sigma_u^2) with one
// variance per worker. Columns are z-scored so sigma_u is shared across
// columns (GTM applied to the whole continuous sub-table); a weak
// inverse-gamma prior keeps sparse workers' variances finite, matching the
// stabilisation used by the core model.
type GTM struct{}

// gtmMaxIter bounds the EM iterations.
const gtmMaxIter = 50

// Name implements Method.
func (GTM) Name() string { return "GTM" }

// Infer implements Method.
func (GTM) Infer(tbl *tabular.Table, log *tabular.AnswerLog) (metrics.Estimates, error) {
	est := metrics.NewEstimates(tbl)

	cont := contColumns(tbl)
	if len(cont) == 0 {
		return est, nil
	}
	// Column standardisation constants from answers.
	colMean := make([]float64, tbl.NumCols())
	colStd := make([]float64, tbl.NumCols())
	perCol := make([][]float64, tbl.NumCols())
	for _, a := range log.All() {
		if a.Value.Kind == tabular.Number {
			perCol[a.Cell.Col] = append(perCol[a.Cell.Col], a.Value.X)
		}
	}
	for _, j := range cont {
		colStd[j] = 1
		if len(perCol[j]) > 0 {
			m, v := stats.MeanVariance(perCol[j])
			colMean[j] = m
			if v > 1e-12 {
				colStd[j] = stats.StdDev(perCol[j])
			}
		}
	}

	type obs struct {
		w, cell int
		z       float64
	}
	type cellKey struct{ i, j int }
	var observations []obs
	var cells []cellKey
	cellIdx := map[cellKey]int{}
	workerIdx := map[tabular.WorkerID]int{}
	for _, j := range cont {
		for i := 0; i < tbl.NumRows(); i++ {
			as := log.ByCell(tabular.Cell{Row: i, Col: j})
			if len(as) == 0 {
				continue
			}
			key := cellKey{i, j}
			c, ok := cellIdx[key]
			if !ok {
				c = len(cells)
				cellIdx[key] = c
				cells = append(cells, key)
			}
			for _, a := range as {
				w, ok := workerIdx[a.Worker]
				if !ok {
					w = len(workerIdx)
					workerIdx[a.Worker] = w
				}
				observations = append(observations, obs{w: w, cell: c, z: stats.Standardize(a.Value.X, colMean[j], colStd[j])})
			}
		}
	}
	if len(observations) == 0 {
		return est, nil
	}
	nw, nc := len(workerIdx), len(cells)

	sigma2 := make([]float64, nw)
	for w := range sigma2 {
		sigma2[w] = 0.2
	}
	mu := make([]float64, nc)
	v := make([]float64, nc)

	const (
		priorA = 1.0 // inverse-gamma shape
		priorB = 0.4 // inverse-gamma scale (mode 0.2)
	)
	for it := 0; it < gtmMaxIter; it++ {
		// E-step: Gaussian posterior per cell with N(0,1) prior.
		prec := make([]float64, nc)
		wsum := make([]float64, nc)
		for c := range prec {
			prec[c] = 1
		}
		for _, o := range observations {
			prec[o.cell] += 1 / sigma2[o.w]
			wsum[o.cell] += o.z / sigma2[o.w]
		}
		for c := 0; c < nc; c++ {
			v[c] = 1 / prec[c]
			mu[c] = wsum[c] * v[c]
		}

		// M-step: MAP update of worker variances.
		num := make([]float64, nw)
		den := make([]float64, nw)
		for _, o := range observations {
			d := o.z - mu[o.cell]
			num[o.w] += d*d + v[o.cell]
			den[o.w]++
		}
		delta := 0.0
		for w := 0; w < nw; w++ {
			s := (priorB + num[w]/2) / (priorA + 1 + den[w]/2)
			if d := absf(s - sigma2[w]); d > delta {
				delta = d
			}
			sigma2[w] = s
		}
		if delta < 1e-8 {
			break
		}
	}

	for c, key := range cells {
		est[key.i][key.j] = tabular.NumberValue(stats.Unstandardize(mu[c], colMean[key.j], colStd[key.j]))
	}
	return est, nil
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
