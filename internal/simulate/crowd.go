package simulate

import (
	"math"
	"math/rand"

	"tcrowd/internal/stats"
	"tcrowd/internal/tabular"
)

// Crowd synthesises answers from a dataset's generative model. It is the
// oracle behind both fixed-assignment replay (AMT-style, Sec. 6.1/6.2) and
// the online assignment simulator (Sec. 6.3): ask it what worker u would
// answer for cell c and it draws from Eq. 1 / Eq. 3 with the planted
// difficulties.
//
// Row confusion is sticky: whether worker u "recognises" entity i is decided
// once per (worker, row) pair and reused, so all of u's answers in that row
// degrade together — the within-row error correlation of Sec. 5.2.
type Crowd struct {
	DS  *Dataset
	rng *rand.Rand
	// rows memoises the sticky per-(worker,row) state: the confusion coin
	// flip and the shared directional bias of continuous answers.
	rows map[confKey]rowState
	// answered counts answers drawn per worker (via Answer/AnswerMeta),
	// which is what flips a Sleeper persona mid-stream.
	answered map[tabular.WorkerID]int
}

type confKey struct {
	w   tabular.WorkerID
	row int
}

type rowState struct {
	confused bool
	bias     float64 // standardized units, shared by the row's continuous cells
}

// NewCrowd builds a crowd with its own deterministic random stream.
func NewCrowd(ds *Dataset, seed int64) *Crowd {
	return &Crowd{
		DS:       ds,
		rng:      stats.NewRNG(seed),
		rows:     make(map[confKey]rowState),
		answered: make(map[tabular.WorkerID]int),
	}
}

// cellVariance returns the effective standardized variance of worker w on
// cell c, including the sticky row-confusion multiplier.
func (cr *Crowd) cellVariance(w *Worker, c tabular.Cell) float64 {
	v := cr.DS.Alpha[c.Row] * cr.DS.Beta[c.Col] * w.Phi
	if cr.rowState(w, c.Row).confused {
		v *= cr.DS.ConfusionFactor
	}
	return v
}

func (cr *Crowd) isConfused(w *Worker, row int) bool {
	return cr.rowState(w, row).confused
}

func (cr *Crowd) rowState(w *Worker, row int) rowState {
	k := confKey{w: w.ID, row: row}
	if v, ok := cr.rows[k]; ok {
		return v
	}
	p := stats.Clamp(cr.DS.RowConfusionBase*w.ConfusionProneness*cr.DS.Alpha[row], 0, 0.6)
	st := rowState{confused: cr.rng.Float64() < p}
	if sd := cr.DS.RowBiasStd; sd > 0 {
		scale := sd
		if st.confused {
			scale *= math.Sqrt(cr.DS.ConfusionFactor)
		}
		st.bias = scale * cr.rng.NormFloat64()
	}
	cr.rows[k] = st
	return st
}

// personaOf resolves worker w's EFFECTIVE persona at its current answer
// count: a Sleeper is Honest until TurnAfter answers, FastDeceiver after.
func (cr *Crowd) personaOf(w *Worker) Persona {
	if w.Persona == Sleeper {
		if cr.answered[w.ID] < w.TurnAfter {
			return Honest
		}
		return FastDeceiver
	}
	return w.Persona
}

// junkValue is RandomJunk behaviour: uniform over the column's labels or
// domain, no relation to the truth.
func (cr *Crowd) junkValue(c tabular.Cell) tabular.Value {
	col := cr.DS.Table.Schema.Columns[c.Col]
	if col.Type == tabular.Categorical {
		return tabular.LabelValue(cr.rng.Intn(len(col.Labels)))
	}
	lo, hi := col.Min, col.Max
	if hi <= lo {
		truth := cr.DS.Table.TruthAt(c)
		return tabular.NumberValue(truth.X + 10*cr.DS.ContScale[c.Col]*cr.rng.NormFloat64())
	}
	return tabular.NumberValue(lo + (hi-lo)*cr.rng.Float64())
}

// deceiveValue is FastDeceiver behaviour: the SAME deterministic wrong
// answer per cell for every deceiver — a coordinated bloc that mutually
// agrees, which is what makes the attack dangerous to agreement-only
// defenses and to the inference itself.
func (cr *Crowd) deceiveValue(c tabular.Cell) tabular.Value {
	col := cr.DS.Table.Schema.Columns[c.Col]
	truth := cr.DS.Table.TruthAt(c)
	if col.Type == tabular.Categorical {
		return tabular.LabelValue((truth.L + 1) % len(col.Labels))
	}
	dir := float64(((c.Row+c.Col)%2)*2 - 1)
	x := truth.X + dir*5*cr.DS.ContScale[c.Col]
	if col.Max > col.Min {
		x = stats.Clamp(x, col.Min, col.Max)
	}
	return tabular.NumberValue(x)
}

// AnswerValue draws the value worker w would submit for cell c.
func (cr *Crowd) AnswerValue(w *Worker, c tabular.Cell) tabular.Value {
	switch cr.personaOf(w) {
	case RandomJunk:
		return cr.junkValue(c)
	case FastDeceiver:
		return cr.deceiveValue(c)
	case Honest, Sleeper:
		// Fall through to the honest generative draw below. personaOf
		// already resolves Sleeper to Honest or FastDeceiver, so the
		// Sleeper arm is unreachable but keeps the switch exhaustive.
	}
	col := cr.DS.Table.Schema.Columns[c.Col]
	truth := cr.DS.Table.TruthAt(c)
	variance := cr.cellVariance(w, c)
	switch col.Type {
	case tabular.Categorical:
		// Eq. 3: correct with probability q, otherwise uniform over the
		// remaining labels.
		q := math.Erf(cr.DS.Eps / math.Sqrt(2*variance))
		if cr.rng.Float64() < q {
			return truth
		}
		k := len(col.Labels)
		wrong := cr.rng.Intn(k - 1)
		if wrong >= truth.L {
			wrong++
		}
		return tabular.LabelValue(wrong)
	default:
		// Eq. 1: a ~ N(truth, variance) in standardized units, mapped to
		// the column's natural units by ContScale, plus the worker's
		// sticky directional row bias (shared across the row's continuous
		// columns — the Fig. 6 signed correlation). Answers are clamped to
		// the column domain, as a crowdsourcing form's input widget would
		// do; without the clamp, spammer-and-confused draws produce
		// physically impossible values whose squared magnitudes dominate
		// every correlation estimate.
		z := math.Sqrt(variance)*cr.rng.NormFloat64() + cr.rowState(w, c.Row).bias
		x := truth.X + z*cr.DS.ContScale[c.Col]
		if col.Max > col.Min {
			x = stats.Clamp(x, col.Min, col.Max)
		}
		return tabular.NumberValue(x)
	}
}

// Answer draws a full Answer record.
func (cr *Crowd) Answer(w *Worker, c tabular.Cell) tabular.Answer {
	a := tabular.Answer{Worker: w.ID, Cell: c, Value: cr.AnswerValue(w, c)}
	cr.answered[w.ID]++
	return a
}

// WorkTimeMs draws the client-reported task time the worker's effective
// persona would submit: honest workers take seconds, junk and deceiver
// personas blast through in well under the plausibility floor.
func (cr *Crowd) WorkTimeMs(w *Worker) int64 {
	switch cr.personaOf(w) {
	case RandomJunk, FastDeceiver:
		return int64(40 + cr.rng.Intn(180))
	default:
		return int64(1200 + cr.rng.Intn(4800))
	}
}

// AnswerMeta draws a full answer plus its persona-consistent work time —
// the pair the adversarial scenarios submit over the /v1 wire.
func (cr *Crowd) AnswerMeta(w *Worker, c tabular.Cell) (tabular.Answer, int64) {
	ms := cr.WorkTimeMs(w)
	return cr.Answer(w, c), ms
}

// FixedAssignment replays the AMT collection protocol of Sec. 6.1: each row
// is a HIT covering all columns ("the number of tasks put in a HIT is the
// same as the number of columns"), and each HIT is answered by
// answersPerTask distinct workers. The resulting log therefore has exactly
// answersPerTask answers for every cell.
func (cr *Crowd) FixedAssignment(answersPerTask int) *tabular.AnswerLog {
	log := tabular.NewAnswerLog()
	nw := len(cr.DS.Workers)
	if answersPerTask > nw {
		answersPerTask = nw
	}
	for i := 0; i < cr.DS.Table.NumRows(); i++ {
		perm := cr.rng.Perm(nw)
		for k := 0; k < answersPerTask; k++ {
			w := &cr.DS.Workers[perm[k]]
			for j := 0; j < cr.DS.Table.NumCols(); j++ {
				log.Add(cr.Answer(w, tabular.Cell{Row: i, Col: j}))
			}
		}
	}
	return log
}

// AppendBatch appends n freshly drawn answers on a deterministic
// worker/cell rotation — the "one more answer batch landed" state that
// online-refresh benchmarks and warm-start tests replay.
func (cr *Crowd) AppendBatch(log *tabular.AnswerLog, n int) {
	rows, cols := cr.DS.Table.NumRows(), cr.DS.Table.NumCols()
	for k := 0; k < n; k++ {
		w := &cr.DS.Workers[k%len(cr.DS.Workers)]
		c := tabular.Cell{Row: (k * 7) % rows, Col: k % cols}
		log.Add(cr.Answer(w, c))
	}
}

// ArrivalOrder returns worker indices in a repeating random-arrival stream:
// the online assignment simulator pops workers from this sequence as they
// "show up" asking for HITs.
func (cr *Crowd) ArrivalOrder(totalArrivals int) []int {
	out := make([]int, 0, totalArrivals)
	for len(out) < totalArrivals {
		perm := cr.rng.Perm(len(cr.DS.Workers))
		need := totalArrivals - len(out)
		if need < len(perm) {
			perm = perm[:need]
		}
		out = append(out, perm...)
	}
	return out
}
