package baselines

import (
	"math"

	"tcrowd/internal/metrics"
	"tcrowd/internal/stats"
	"tcrowd/internal/tabular"
)

// DawidSkene is the classical confusion-matrix EM of Dawid & Skene (1979)
// — the method the paper's Table 7 labels "EM". Because label sets differ
// per column, one independent D&S instance runs per categorical column;
// this per-column independence is exactly the knowledge-transfer gap
// T-Crowd closes.
type DawidSkene struct{}

// emMaxIter bounds the EM iterations of D&S and ZenCrowd.
const emMaxIter = 50

// Name implements Method.
func (DawidSkene) Name() string { return "D&S (EM)" }

// Infer implements Method.
func (DawidSkene) Infer(tbl *tabular.Table, log *tabular.AnswerLog) (metrics.Estimates, error) {
	est := metrics.NewEstimates(tbl)
	for _, j := range catColumns(tbl) {
		// Laplace smoothing of the confusion-matrix rows: one pseudo-count
		// spread over the whole row, since a fixed per-entry mass would
		// swamp real counts on large label sets (|L| can reach the
		// hundreds for name columns).
		smooth := 1 / float64(tbl.Schema.Columns[j].NumLabels())
		inferDSColumn(tbl, log, j, smooth, est)
	}
	return est, nil
}

func inferDSColumn(tbl *tabular.Table, log *tabular.AnswerLog, j int, smooth float64, est metrics.Estimates) {
	l := tbl.Schema.Columns[j].NumLabels()
	type obs struct {
		w, i, label int
	}
	var observations []obs
	workerIdx := map[tabular.WorkerID]int{}
	var rows []int
	rowSeen := map[int]bool{}
	for i := 0; i < tbl.NumRows(); i++ {
		for _, a := range log.ByCell(tabular.Cell{Row: i, Col: j}) {
			k, ok := workerIdx[a.Worker]
			if !ok {
				k = len(workerIdx)
				workerIdx[a.Worker] = k
			}
			observations = append(observations, obs{w: k, i: i, label: a.Value.L})
			if !rowSeen[i] {
				rowSeen[i] = true
				rows = append(rows, i)
			}
		}
	}
	if len(observations) == 0 {
		return
	}
	nw := len(workerIdx)

	// post[i] is P(T_i = z); init from vote shares.
	post := make(map[int][]float64, len(rows))
	for _, i := range rows {
		post[i] = make([]float64, l)
	}
	for _, o := range observations {
		post[o.i][o.label]++
	}
	for _, i := range rows {
		for z := range post[i] {
			post[i][z] += 0.5
		}
		normalize(post[i])
	}

	// Confusion matrices pi[w][z][z'] = P(answer z' | truth z) and class
	// prior p[z].
	pi := make([][][]float64, nw)
	prior := make([]float64, l)

	for it := 0; it < emMaxIter; it++ {
		// M-step.
		for w := 0; w < nw; w++ {
			pi[w] = make([][]float64, l)
			for z := 0; z < l; z++ {
				row := make([]float64, l)
				for zp := range row {
					row[zp] = smooth
				}
				pi[w][z] = row
			}
		}
		for z := range prior {
			prior[z] = smooth
		}
		for _, o := range observations {
			for z := 0; z < l; z++ {
				pi[o.w][z][o.label] += post[o.i][z]
			}
		}
		for _, i := range rows {
			for z := 0; z < l; z++ {
				prior[z] += post[i][z]
			}
		}
		for w := 0; w < nw; w++ {
			for z := 0; z < l; z++ {
				normalize(pi[w][z])
			}
		}
		normalize(prior)

		// E-step.
		next := make(map[int][]float64, len(rows))
		for _, i := range rows {
			lp := make([]float64, l)
			for z := 0; z < l; z++ {
				lp[z] = math.Log(prior[z])
			}
			next[i] = lp
		}
		for _, o := range observations {
			lp := next[o.i]
			for z := 0; z < l; z++ {
				lp[z] += math.Log(pi[o.w][z][o.label])
			}
		}
		delta := 0.0
		for _, i := range rows {
			p := stats.NormalizeLogProbs(next[i])
			for z := 0; z < l; z++ {
				if d := math.Abs(p[z] - post[i][z]); d > delta {
					delta = d
				}
			}
			post[i] = p
		}
		if delta < 1e-6 {
			break
		}
	}
	for _, i := range rows {
		est[i][j] = tabular.LabelValue(argMax(post[i]))
	}
}

// ZenCrowd collapses the confusion matrix to one reliability r_u per
// worker (Demartini et al., WWW'12). Unlike D&S it shares r_u across all
// categorical columns, which already transfers some signal between columns
// — but none from continuous data.
type ZenCrowd struct{}

// Name implements Method.
func (ZenCrowd) Name() string { return "Zencrowd" }

// Infer implements Method.
func (ZenCrowd) Infer(tbl *tabular.Table, log *tabular.AnswerLog) (metrics.Estimates, error) {
	est := metrics.NewEstimates(tbl)

	type obs struct {
		w, i, j, label, l int
	}
	var observations []obs
	workerIdx := map[tabular.WorkerID]int{}
	type cellKey struct{ i, j int }
	post := map[cellKey][]float64{}
	for _, j := range catColumns(tbl) {
		l := tbl.Schema.Columns[j].NumLabels()
		for i := 0; i < tbl.NumRows(); i++ {
			as := log.ByCell(tabular.Cell{Row: i, Col: j})
			if len(as) == 0 {
				continue
			}
			p := make([]float64, l)
			for _, a := range as {
				k, ok := workerIdx[a.Worker]
				if !ok {
					k = len(workerIdx)
					workerIdx[a.Worker] = k
				}
				observations = append(observations, obs{w: k, i: i, j: j, label: a.Value.L, l: l})
				p[a.Value.L]++
			}
			for z := range p {
				p[z] += 0.5
			}
			normalize(p)
			post[cellKey{i, j}] = p
		}
	}
	if len(observations) == 0 {
		return est, nil
	}

	rel := make([]float64, len(workerIdx))
	for it := 0; it < emMaxIter; it++ {
		// M-step: r_u = smoothed expected fraction of correct answers.
		num := make([]float64, len(rel))
		den := make([]float64, len(rel))
		for _, o := range observations {
			num[o.w] += post[cellKey{o.i, o.j}][o.label]
			den[o.w]++
		}
		delta := 0.0
		for w := range rel {
			r := (num[w] + 1) / (den[w] + 2) // Beta(1,1)-smoothed
			if d := math.Abs(r - rel[w]); d > delta {
				delta = d
			}
			rel[w] = r
		}

		// E-step.
		next := map[cellKey][]float64{}
		for key, p := range post {
			lp := make([]float64, len(p))
			next[key] = lp
		}
		for _, o := range observations {
			lp := next[cellKey{o.i, o.j}]
			r := stats.Clamp(rel[o.w], 1e-6, 1-1e-6)
			lnWrong := math.Log((1 - r) / float64(o.l-1))
			lnRight := math.Log(r)
			for z := range lp {
				if z == o.label {
					lp[z] += lnRight
				} else {
					lp[z] += lnWrong
				}
			}
		}
		for key, lp := range next {
			post[key] = stats.NormalizeLogProbs(lp)
		}
		if delta < 1e-6 && it > 0 {
			break
		}
	}
	for key, p := range post {
		est[key.i][key.j] = tabular.LabelValue(argMax(p))
	}
	return est, nil
}

func normalize(p []float64) {
	s := 0.0
	for _, v := range p {
		s += v
	}
	if s <= 0 {
		u := 1 / float64(len(p))
		for i := range p {
			p[i] = u
		}
		return
	}
	for i := range p {
		p[i] /= s
	}
}
