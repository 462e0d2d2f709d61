package baselines

import (
	"math"

	"tcrowd/internal/metrics"
	"tcrowd/internal/optimize"
	"tcrowd/internal/stats"
	"tcrowd/internal/tabular"
)

// GLAD (Whitehill et al., NIPS'09) models the probability that worker u
// answers task t correctly as sigma(g_u * d_t), with real-valued worker
// ability g_u shared across all categorical columns and per-task inverse
// difficulty d_t > 0; wrong answers spread uniformly over the remaining
// labels. EM with gradient ascent on (g, ln d).
type GLAD struct{}

const (
	// gladMaxIter bounds the EM iterations.
	gladMaxIter = 30
	// gladMStepIter bounds the gradient steps per M-step.
	gladMStepIter = 20
)

// Name implements Method.
func (GLAD) Name() string { return "GLAD" }

type gladObs struct {
	w, t, label, l int
}

// Infer implements Method.
func (GLAD) Infer(tbl *tabular.Table, log *tabular.AnswerLog) (metrics.Estimates, error) {
	est := metrics.NewEstimates(tbl)

	// Tasks are categorical cells with answers.
	type cellKey struct{ i, j int }
	taskIdx := map[cellKey]int{}
	var taskCells []cellKey
	workerIdx := map[tabular.WorkerID]int{}
	var observations []gladObs
	for _, j := range catColumns(tbl) {
		l := tbl.Schema.Columns[j].NumLabels()
		for i := 0; i < tbl.NumRows(); i++ {
			as := log.ByCell(tabular.Cell{Row: i, Col: j})
			if len(as) == 0 {
				continue
			}
			key := cellKey{i, j}
			t, ok := taskIdx[key]
			if !ok {
				t = len(taskCells)
				taskIdx[key] = t
				taskCells = append(taskCells, key)
			}
			for _, a := range as {
				w, ok := workerIdx[a.Worker]
				if !ok {
					w = len(workerIdx)
					workerIdx[a.Worker] = w
				}
				observations = append(observations, gladObs{w: w, t: t, label: a.Value.L, l: l})
			}
		}
	}
	if len(observations) == 0 {
		return est, nil
	}
	nw, nt := len(workerIdx), len(taskCells)

	// Posteriors initialised from vote shares.
	post := make([][]float64, nt)
	for t, key := range taskCells {
		post[t] = make([]float64, tbl.Schema.Columns[key.j].NumLabels())
	}
	for _, o := range observations {
		post[o.t][o.label]++
	}
	for t := range post {
		for z := range post[t] {
			post[t][z] += 0.5
		}
		normalize(post[t])
	}

	// Parameters: theta = [g (nw, real) ; ln d (nt)].
	theta := make([]float64, nw+nt)
	for w := 0; w < nw; w++ {
		theta[w] = 1
	}

	// pCorrect[o] caches the posterior probability that observation o's
	// answer is correct; refreshed each E-step.
	pCorrect := make([]float64, len(observations))
	refresh := func() {
		for k, o := range observations {
			pCorrect[k] = post[o.t][o.label]
		}
	}
	refresh()

	sigmoid := func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

	negQ := func(th []float64) float64 {
		q := 0.0
		for k, o := range observations {
			s := stats.Clamp(sigmoid(th[o.w]*math.Exp(th[nw+o.t])), 1e-12, 1-1e-12)
			p := pCorrect[k]
			q += p*math.Log(s) + (1-p)*(math.Log(1-s)-math.Log(float64(o.l-1)))
		}
		// Weak priors keep abilities/difficulties from running away.
		for w := 0; w < nw; w++ {
			q -= th[w] * th[w] / 50
		}
		for t := 0; t < nt; t++ {
			q -= th[nw+t] * th[nw+t] / 50
		}
		return -q
	}
	negGrad := func(th, grad []float64) {
		for i := range grad {
			grad[i] = 0
		}
		for k, o := range observations {
			d := math.Exp(th[nw+o.t])
			s := sigmoid(th[o.w] * d)
			diff := pCorrect[k] - s
			grad[o.w] -= diff * d
			grad[nw+o.t] -= diff * th[o.w] * d
		}
		for w := 0; w < nw; w++ {
			grad[w] += th[w] / 25
		}
		for t := 0; t < nt; t++ {
			grad[nw+t] += th[nw+t] / 25
		}
	}

	for it := 0; it < gladMaxIter; it++ {
		// M-step.
		res := optimize.Minimize(negQ, negGrad, theta, optimize.Options{MaxIter: gladMStepIter, InitStep: 0.1})
		theta = res.X

		// E-step.
		next := make([][]float64, nt)
		for t := range next {
			next[t] = make([]float64, len(post[t]))
		}
		for _, o := range observations {
			s := stats.Clamp(sigmoid(theta[o.w]*math.Exp(theta[nw+o.t])), 1e-12, 1-1e-12)
			lnRight := math.Log(s)
			lnWrong := math.Log((1 - s) / float64(o.l-1))
			lp := next[o.t]
			for z := range lp {
				if z == o.label {
					lp[z] += lnRight
				} else {
					lp[z] += lnWrong
				}
			}
		}
		delta := 0.0
		for t := range next {
			p := stats.NormalizeLogProbs(next[t])
			for z := range p {
				if d := math.Abs(p[z] - post[t][z]); d > delta {
					delta = d
				}
			}
			post[t] = p
		}
		refresh()
		if delta < 1e-6 {
			break
		}
	}

	for t, key := range taskCells {
		est[key.i][key.j] = tabular.LabelValue(argMax(post[t]))
	}
	return est, nil
}
