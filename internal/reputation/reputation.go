// Package reputation implements the streaming per-worker reputation engine
// behind the platform's spam defense: the online counterpart of the offline
// worker filters crowdsourcing pipelines apply between collection and
// inference (response-time outliers, majority agreement, model-estimated
// quality).
//
// # Signals
//
// Each submitted answer is folded into the engine as one Observation:
//
//   - Agreement. The engine keeps a tiny per-cell aggregate (label counts
//     for categorical cells, a Welford mean/variance for continuous ones)
//     and judges every answer against the aggregate of the answers that
//     PRECEDED it, once a cell has enough peers to have an opinion. A
//     categorical answer disagrees when it misses the prior plurality
//     label; a continuous one when it falls outside the prior answers'
//     3-sigma band. Judgements feed an exponentially-weighted disagree
//     rate, so a sleeper who turns malicious mid-stream decays toward its
//     recent behaviour instead of hiding behind an honest history.
//   - Response time. Answers carrying work_time_ms below a fixed floor
//     (minWorkTimeMs) feed an EWMA fast-answer rate — the classic
//     fast-deceiver signal. Missing work times are never penalised.
//   - Model quality. The inference layer pushes each worker's posterior
//     quality (core.Model.WorkerQuality) into the engine after every
//     refresh. Model quality only modulates the E-step weight; it is
//     deliberately excluded from the verdict fold (see below).
//
// # Graduated responses
//
// The per-worker score (disagree rate plus a discounted fast rate) drives
// a four-state machine: Active -> Watched -> Quarantined -> Banned.
// Watched and Quarantined workers keep submitting but their answers carry
// shrinking E-step weight (Weight), and Quarantined workers stop receiving
// task assignments; Banned workers get a typed 403 at the door and never
// de-escalate. Escalations gate on minimum judged-answer counts so a
// handful of early disagreements cannot ban anyone; de-escalation uses a
// hysteresis margin so workers do not flap at a threshold.
//
// # Determinism
//
// Observe is a pure left fold over the answer stream: the verdict sequence
// is a function of the answers (and their metadata) in submission order,
// independent of how the stream was batched. Everything that depends on
// refresh timing — which DOES vary with batching — is kept out of the
// fold: ObserveModelQuality only updates the weight modulation, never the
// counters or the state machine. The platform relies on this to keep
// reputation replay deterministic (see the batch-split property test).
//
//tcrowd:deterministic
package reputation

import (
	"math"
	"sort"
	"sync"

	"tcrowd/internal/tabular"
)

// State is a worker's graduated-response state. Order matters: higher
// states are more restricted.
type State int

// The enum directive makes every switch over State in this package
// exhaustive under tcrowd-lint: a new state cannot silently skip the
// transition or serialization paths.
//
//tcrowd:enum State
const (
	// Active workers are in good standing: full weight, assignable.
	Active State = iota
	// Watched workers have a suspicious signal: answers are down-weighted
	// in inference but they keep answering and receiving tasks.
	Watched
	// Quarantined workers are excluded from task assignment and their
	// answers carry a token weight, but submissions are still accepted
	// (the stream keeps feeding the verdict fold, so recovery or
	// escalation both stay possible).
	Quarantined
	// Banned workers are rejected at the API door (403 worker_banned)
	// and never de-escalate.
	Banned
)

// String implements fmt.Stringer (wire names, also used in WAL records).
func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Watched:
		return "watched"
	case Quarantined:
		return "quarantined"
	case Banned:
		return "banned"
	default:
		return "unknown"
	}
}

// The engine's thresholds. The float ones are typed so that constant
// expressions such as 1-decay and quarantineScore-hysteresis round each
// step to float64, exactly as the same arithmetic does at run time.
const (
	// minPeers is the number of PRIOR answers a cell needs before new
	// answers are judged against it.
	minPeers = 2
	// minWorkTimeMs flags answers reported faster than this as
	// suspiciously fast.
	minWorkTimeMs = 500
	// decay is the EWMA retention of the disagree/fast rates per judged
	// answer: ~15 recent judgements dominate, so sleepers surface within
	// a few tasks of turning.
	decay float64 = 0.93
	// fastWeight discounts the fast-rate's contribution to the score:
	// speed alone can watch-list a worker (0.55 clears watchScore) but
	// never quarantines or bans one without disagreement evidence.
	fastWeight float64 = 0.55
	// watchAfter/quarantineAfter/banAfter gate each escalation on a
	// minimum number of judged answers.
	watchAfter, quarantineAfter, banAfter = 8, 16, 24
	// watchScore/quarantineScore/banScore are the score thresholds of the
	// escalations. De-escalation applies the hysteresis margin below the
	// corresponding threshold.
	watchScore, quarantineScore, banScore float64 = 0.50, 0.65, 0.80
)

// hysteresis is the score margin below a threshold required before a
// worker de-escalates out of the state that threshold guards.
const hysteresis = 0.1

// Observation is one answer entering the fold, with its wire metadata.
type Observation struct {
	Answer tabular.Answer
	// WorkTimeMs is the client-reported time spent on the task; 0 means
	// not reported (the time signal is skipped, never penalised).
	WorkTimeMs int64
}

// Verdict records one state transition of the fold.
type Verdict struct {
	Worker tabular.WorkerID
	From   State
	To     State
	// Judged is the worker's judged-answer count at the transition.
	Judged int
	// Score is the worker's reputation score at the transition.
	Score float64
}

// WorkerSnapshot is a worker's complete fold state, serialisable into WAL
// reputation records and checkpoints.
type WorkerSnapshot struct {
	Worker       tabular.WorkerID `json:"worker"`
	State        State            `json:"state"`
	Seen         int              `json:"seen"`
	Judged       int              `json:"judged"`
	Disagreed    int              `json:"disagreed"`
	Timed        int              `json:"timed"`
	Fast         int              `json:"fast"`
	DisagreeRate float64          `json:"disagree_rate"`
	FastRate     float64          `json:"fast_rate"`
	ModelQ       float64          `json:"model_q,omitempty"`
}

type workerState struct {
	state        State
	seen         int // answers observed
	judged       int // answers with an agreement judgement
	disagreed    int
	timed        int // answers carrying a work time
	fast         int
	disagreeRate float64
	fastRate     float64
	modelQ       float64 // last model-posted quality; 0 = none yet
}

// cellAgg is the running aggregate a cell's later answers are judged
// against. Categorical cells count labels; continuous cells keep a Welford
// mean/variance of the raw values.
type cellAgg struct {
	counts   []int // categorical label counts (grown on demand)
	n        int
	mean, m2 float64
}

// plurality returns the most-voted label (ties to the smaller index).
func (c *cellAgg) plurality() int {
	best, bestN := -1, 0
	for l, n := range c.counts {
		if n > bestN {
			best, bestN = l, n
		}
	}
	return best
}

// Engine is the streaming reputation fold. Safe for concurrent use.
type Engine struct {
	mu sync.Mutex
	//tcrowd:guardedby mu
	workers map[tabular.WorkerID]*workerState
	//tcrowd:guardedby mu
	cells map[tabular.Cell]*cellAgg
}

// NewEngine returns an empty engine.
func NewEngine() *Engine {
	return &Engine{
		workers: make(map[tabular.WorkerID]*workerState),
		cells:   make(map[tabular.Cell]*cellAgg),
	}
}

// Observe folds one answer into the engine and reports the worker's state
// transition, if this answer caused one. Call in answer-stream order; the
// verdict sequence depends only on that order, not on batching.
func (e *Engine) Observe(o Observation) (Verdict, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()

	u := o.Answer.Worker
	w := e.workers[u]
	if w == nil {
		w = &workerState{}
		e.workers[u] = w
	}
	w.seen++

	// Agreement: judge against the cell's PRIOR aggregate, then fold the
	// answer in regardless of who sent it — spam in the baseline is the
	// price of judging online; the plurality washes it out.
	cell := e.cells[o.Answer.Cell]
	if cell == nil {
		cell = &cellAgg{}
		e.cells[o.Answer.Cell] = cell
	}
	if cell.n >= minPeers {
		disagree := false
		switch o.Answer.Value.Kind {
		case tabular.Label:
			disagree = o.Answer.Value.L != cell.plurality()
		case tabular.Number:
			sd := 0.0
			if cell.n > 1 {
				sd = math.Sqrt(cell.m2 / float64(cell.n-1))
			}
			// The tolerance band floors at 5% of the mean's magnitude so
			// a degenerate (all-identical) baseline doesn't flag honest
			// jitter.
			tol := 3*sd + 0.05*(math.Abs(cell.mean)+1)
			disagree = math.Abs(o.Answer.Value.X-cell.mean) > tol
		case tabular.None:
			// Kind-less answers are rejected upstream by validation; an
			// empty value that slips through is never held against the
			// worker.
		}
		w.judged++
		ind := 0.0
		if disagree {
			w.disagreed++
			ind = 1
		}
		w.disagreeRate = decay*w.disagreeRate + (1-decay)*ind
	}
	e.foldCell(cell, o.Answer.Value)

	// Response time: only judged when reported.
	if o.WorkTimeMs > 0 {
		w.timed++
		ind := 0.0
		if o.WorkTimeMs < minWorkTimeMs {
			w.fast++
			ind = 1
		}
		w.fastRate = decay*w.fastRate + (1-decay)*ind
	}

	from := w.state
	w.state = e.nextState(w)
	if w.state != from {
		return Verdict{Worker: u, From: from, To: w.state, Judged: w.judged, Score: e.score(w)}, true
	}
	return Verdict{}, false
}

func (e *Engine) foldCell(c *cellAgg, v tabular.Value) {
	switch v.Kind {
	case tabular.Label:
		for len(c.counts) <= v.L {
			c.counts = append(c.counts, 0)
		}
		c.counts[v.L]++
		c.n++
	case tabular.Number:
		c.n++
		d := v.X - c.mean
		c.mean += d / float64(c.n)
		c.m2 += d * (v.X - c.mean)
	case tabular.None:
		// An empty value carries no information; folding it in would only
		// inflate n and dilute the plurality baseline.
	}
}

// score combines the EWMA rates: full-strength disagreement plus
// discounted speed, clamped to 1.
func (e *Engine) score(w *workerState) float64 {
	s := w.disagreeRate + fastWeight*w.fastRate
	return math.Min(s, 1)
}

// nextState runs the graduated-response machine: escalations gate on the
// judged-answer floors, de-escalations need the hysteresis margin, bans
// are sticky.
func (e *Engine) nextState(w *workerState) State {
	if w.state == Banned {
		return Banned
	}
	s := e.score(w)
	switch {
	case w.judged >= banAfter && s >= banScore:
		return Banned
	case w.judged >= quarantineAfter && s >= quarantineScore:
		return Quarantined
	case w.judged >= watchAfter && s >= watchScore:
		if w.state < Watched {
			return Watched
		}
		return w.state
	}
	// Below every escalation threshold: step down one state at a time
	// once the score clears the hysteresis margin.
	switch w.state {
	case Quarantined:
		if s < quarantineScore-hysteresis {
			return Watched
		}
	case Watched:
		if s < watchScore-hysteresis {
			return Active
		}
	case Active, Banned:
		// Active has nowhere to step down to, and bans are sticky — the
		// early return above means Banned never reaches this switch.
	}
	return w.state
}

// ObserveModelQuality records worker u's model-posterior quality (in
// [0, 1], from core.Model.WorkerQuality). It modulates Weight only — by
// design it never touches the counters or the state machine, so refresh
// timing cannot perturb the verdict sequence.
func (e *Engine) ObserveModelQuality(u tabular.WorkerID, q float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	w := e.workers[u]
	if w == nil {
		w = &workerState{}
		e.workers[u] = w
	}
	w.modelQ = q
}

// stateWeight is the E-step multiplier of each state before model-quality
// modulation.
func stateWeight(s State) float64 {
	switch s {
	case Active:
		return 1
	case Watched:
		return 0.35
	case Quarantined:
		return 0.05
	case Banned:
		return 0
	}
	// Out-of-range states (a corrupt checkpoint snapshot) carry no weight.
	return 0
}

// Weight returns worker u's E-step likelihood multiplier: the state weight
// scaled down further when the model itself estimates the worker below
// coin-flip quality. Unknown workers weigh 1.
func (e *Engine) Weight(u tabular.WorkerID) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	w := e.workers[u]
	if w == nil {
		return 1
	}
	return e.weightLocked(w)
}

func (e *Engine) weightLocked(w *workerState) float64 {
	wt := stateWeight(w.state)
	if wt == 0 {
		return 0
	}
	if q := w.modelQ; q > 0 && q < 0.5 {
		// A model-certified poor worker shrinks further, floored so the
		// model keeps enough signal to revise its own estimate.
		wt *= math.Max(2*q, 0.1)
	}
	return wt
}

// Weights returns the non-unit E-step multipliers, ready for
// core.Model.SetWorkerWeights (nil when every worker is at full weight).
func (e *Engine) Weights() map[tabular.WorkerID]float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out map[tabular.WorkerID]float64
	for u, w := range e.workers {
		if wt := e.weightLocked(w); wt != 1 {
			if out == nil {
				out = make(map[tabular.WorkerID]float64)
			}
			out[u] = wt
		}
	}
	return out
}

// State returns worker u's current state (Active for unknown workers).
func (e *Engine) State(u tabular.WorkerID) State {
	e.mu.Lock()
	defer e.mu.Unlock()
	if w := e.workers[u]; w != nil {
		return w.state
	}
	return Active
}

// Assignable reports whether worker u should receive task assignments
// (Active or Watched).
func (e *Engine) Assignable(u tabular.WorkerID) bool {
	return e.State(u) < Quarantined
}

// SnapshotOf returns worker u's fold state (zero snapshot for unknown
// workers).
func (e *Engine) SnapshotOf(u tabular.WorkerID) WorkerSnapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	if w := e.workers[u]; w != nil {
		return snap(u, w)
	}
	return WorkerSnapshot{Worker: u}
}

// Snapshot returns every worker's fold state, sorted by worker ID for
// deterministic serialisation (checkpoints, /v1 listings).
func (e *Engine) Snapshot() []WorkerSnapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]WorkerSnapshot, 0, len(e.workers))
	for u, w := range e.workers {
		//lint:allow detfold collection order is irrelevant: the slice is sorted by worker ID immediately below
		out = append(out, snap(u, w))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Worker < out[j].Worker })
	return out
}

// Score returns worker u's current reputation score (0 for unknown
// workers).
func (e *Engine) Score(u tabular.WorkerID) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if w := e.workers[u]; w != nil {
		return e.score(w)
	}
	return 0
}

func snap(u tabular.WorkerID, w *workerState) WorkerSnapshot {
	return WorkerSnapshot{
		Worker:       u,
		State:        w.state,
		Seen:         w.seen,
		Judged:       w.judged,
		Disagreed:    w.disagreed,
		Timed:        w.timed,
		Fast:         w.fast,
		DisagreeRate: w.disagreeRate,
		FastRate:     w.fastRate,
		ModelQ:       w.modelQ,
	}
}

// Restore overwrites the given workers' fold states from snapshots (WAL
// replay: reputation records carry the authoritative state at their stream
// position). Cell aggregates are not part of snapshots — they rebuild from
// the replayed answers, so post-recovery agreement baselines restart from
// the checkpoint while worker counters and states are exact.
func (e *Engine) Restore(snaps []WorkerSnapshot) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, s := range snaps {
		e.workers[s.Worker] = &workerState{
			state:        s.State,
			seen:         s.Seen,
			judged:       s.Judged,
			disagreed:    s.Disagreed,
			timed:        s.Timed,
			fast:         s.Fast,
			disagreeRate: s.DisagreeRate,
			fastRate:     s.FastRate,
			modelQ:       s.ModelQ,
		}
	}
}
