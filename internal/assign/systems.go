package assign

import (
	"math"
	"math/rand"

	"tcrowd/internal/baselines"
	"tcrowd/internal/core"
	"tcrowd/internal/metrics"
	"tcrowd/internal/stats"
	"tcrowd/internal/tabular"
)

// TCrowdSystem is the full T-Crowd pipeline: Sec. 4 inference plus a
// Sec. 5 assignment policy (structure-aware IG by default).
type TCrowdSystem struct {
	// Policy selects tasks (default StructureIG).
	Policy Policy
	// Opts forwards to core.Infer. MaxIter defaults to 12 for online
	// refreshes (full convergence is only needed at evaluation points).
	Opts core.Options
	// Seed drives tie-breaking.
	Seed int64

	st       *State
	tieBreak *rand.Rand
}

// NewTCrowdSystem builds the default T-Crowd system.
func NewTCrowdSystem(seed int64) *TCrowdSystem {
	return &TCrowdSystem{Policy: StructureIG{}, Seed: seed}
}

// Name implements System.
func (t *TCrowdSystem) Name() string { return "T-Crowd" }

// Refresh implements System. Three tiers, fastest first; each runs core's
// one engine (Ingest, then RefreshIncremental) with its own budget:
//
//   - streaming: when the previous fit was made on this very log object
//     (grown in place — the serving loop's normal shape), the new suffix is
//     ingested into the fitted model's group store and a short incremental
//     polish re-converges it; refresh cost is O(batch), not O(log);
//   - warm rebuild: a different (but shape-compatible) log is ingested
//     into a new model whose EM is seeded at the previous optimum;
//   - cold: no usable previous model.
func (t *TCrowdSystem) Refresh(tbl *tabular.Table, log *tabular.AnswerLog) error {
	if t.Policy == nil {
		t.Policy = StructureIG{}
	}
	if t.tieBreak == nil {
		t.tieBreak = stats.NewRNG(t.Seed)
	}
	if prev := t.Model(); prev.CanIngestFrom(tbl, log) {
		if n, err := prev.IngestFrom(log); err == nil {
			if n == 0 {
				// Nothing landed since the last refresh: the fitted state
				// is current, skip the polish and the Estimates /
				// BuildErrorModel rebuild entirely.
				return nil
			}
			// Default (zero Opts) serving keeps the online-EM single
			// polish iteration; an explicitly configured EM budget keeps
			// the warm tier's convergence level (capped like the warm
			// rebuild below, stopping early on Tol).
			polish := 0
			if t.Opts.MaxIter > 0 {
				polish = min(t.Opts.MaxIter, 5)
			}
			t.applyRefresh(prev, log, prev.RefreshIncremental(polish))
			return nil
		}
		// Ingestion failure (e.g. a malformed answer) falls through to the
		// rebuild path, which re-validates the whole log.
	}
	opts := t.Opts
	if opts.MaxIter == 0 {
		opts.MaxIter = 12
	}
	if opts.MStepIter == 0 {
		opts.MStepIter = 10
	}
	// Online refreshes see a log that grew by a handful of answers:
	// InferWarm restarts EM next to the previous optimum (no cold-start
	// cost). The tight iteration cap applies only when the warm seed is
	// actually usable — after a table reshape the previous model is
	// incompatible and the refresh deserves its full cold budget.
	prev := t.Model()
	if !core.CanWarmStart(prev, tbl) {
		prev = nil
	}
	if prev != nil && opts.MaxIter > 5 {
		opts.MaxIter = 5
	}
	m, err := core.InferWarm(prev, tbl, log, opts)
	if err == core.ErrNoAnswers {
		t.st = &State{Log: log, RNG: t.tieBreak}
		return nil
	}
	if err != nil {
		return err
	}
	t.setState(m, log)
	return nil
}

// setState rebuilds the assignment state around a freshly (re)fitted model.
func (t *TCrowdSystem) setState(m *core.Model, log *tabular.AnswerLog) {
	_, isStruct := t.Policy.(StructureIG)
	st := NewState(m, log.Prefix(), m.Estimates(), isStruct)
	st.Log, st.RNG = log, t.tieBreak
	t.st = st
}

// applyRefresh folds one streaming refresh into the existing assignment
// state in place — the zero-allocation steady-state path. A deferred-polish
// refresh changed only the batch's cells, so exactly those estimates and
// cached gain terms are re-extracted and the error model's accumulators
// adjusted (UpdateCells); a polished refresh moved every posterior and the
// global parameters, so the estimate grid and the gain terms are refilled
// and the error model rebuilt — all into the arenas the state already
// owns. Falls back to a fresh setState when no compatible state exists
// (first streaming refresh after a rebuild with a foreign grid, or a
// policy change mid-stream).
func (t *TCrowdSystem) applyRefresh(m *core.Model, log *tabular.AnswerLog, rs core.RefreshStats) {
	st := t.st
	if st == nil || st.Model != m || st.Est == nil {
		t.setState(m, log)
		return
	}
	st.Log = log
	if rs.Polished {
		m.EstimatesInto(st.Est)
		st.terms.refreshAll(m)
	} else {
		nCols := m.Table.NumCols()
		for _, key := range rs.Cells {
			st.Est[key/nCols][key%nCols] = m.EstimateCell(key/nCols, key%nCols)
			st.terms.refresh(m, key)
		}
	}
	if _, isStruct := t.Policy.(StructureIG); !isStruct {
		return
	}
	switch {
	case st.Err == nil:
		st.Err = NewErrorModel(m)
		st.Err.Rebuild(log.Prefix(), st.Est)
	case rs.Polished:
		st.Err.Rebuild(log.Prefix(), st.Est)
	default:
		st.Err.UpdateCells(log, st.Est, rs.Cells)
	}
}

// Select implements System.
func (t *TCrowdSystem) Select(u tabular.WorkerID, k int, log *tabular.AnswerLog) []tabular.Cell {
	if t.st == nil || t.st.Model == nil {
		return nil
	}
	t.st.Log = log
	return t.Policy.Select(t.st, u, k)
}

// Estimates implements System.
func (t *TCrowdSystem) Estimates() metrics.Estimates {
	if t.st == nil || t.st.Model == nil {
		return nil
	}
	return t.st.Model.Estimates()
}

// Model exposes the fitted inference model of the last Refresh (nil before
// the first informative refresh). The public API layers on top of it.
func (t *TCrowdSystem) Model() *core.Model {
	if t.st == nil {
		return nil
	}
	return t.st.Model
}

// voteState is the shared bookkeeping of the MV/median-based systems (CDAS
// and AskIt!): per-cell vote shares, sample statistics and estimates.
type voteState struct {
	tbl *tabular.Table
	est metrics.Estimates
	// share[i][j] is the leading vote share of a categorical cell;
	// count[i][j] the number of answers; sampleVar[i][j] the answer
	// variance of a continuous cell (natural units).
	share     [][]float64
	count     [][]int
	sampleVar [][]float64
	voteEnt   [][]float64
}

func buildVoteState(tbl *tabular.Table, log *tabular.AnswerLog) *voteState {
	n, m := tbl.NumRows(), tbl.NumCols()
	vs := &voteState{
		tbl:       tbl,
		est:       metrics.NewEstimates(tbl),
		share:     make([][]float64, n),
		count:     make([][]int, n),
		sampleVar: make([][]float64, n),
		voteEnt:   make([][]float64, n),
	}
	for i := 0; i < n; i++ {
		vs.share[i] = make([]float64, m)
		vs.count[i] = make([]int, m)
		vs.sampleVar[i] = make([]float64, m)
		vs.voteEnt[i] = make([]float64, m)
		for j := 0; j < m; j++ {
			c := tabular.Cell{Row: i, Col: j}
			as := log.ByCell(c)
			vs.count[i][j] = len(as)
			if len(as) == 0 {
				continue
			}
			if tbl.Schema.Columns[j].Type == tabular.Categorical {
				counts := make([]float64, tbl.Schema.Columns[j].NumLabels())
				for _, a := range as {
					counts[a.Value.L]++
				}
				best := 0
				for z := 1; z < len(counts); z++ {
					if counts[z] > counts[best] {
						best = z
					}
				}
				vs.est[i][j] = tabular.LabelValue(best)
				vs.share[i][j] = counts[best] / float64(len(as))
				vs.voteEnt[i][j] = stats.ShannonEntropy(stats.Categorical{P: counts}.Normalize().P)
			} else {
				xs := make([]float64, len(as))
				for k, a := range as {
					xs[k] = a.Value.X
				}
				vs.est[i][j] = tabular.NumberValue(stats.Median(xs))
				vs.sampleVar[i][j] = stats.Variance(xs)
			}
		}
	}
	return vs
}

// CDAS models the quality-sensitive answering system of Liu et al.
// (PVLDB'12): tasks whose current estimate is confident enough are
// "terminated" and leave the assignment pool; remaining tasks are assigned
// at random. Truth inference is simple (vote / median), which is why its
// final quality trails the model-based systems in Fig. 2.
type CDAS struct {
	// Confidence is the vote-share termination threshold (default 0.8).
	Confidence float64
	// RelStd is the relative-std termination threshold for continuous
	// tasks (default 0.35): terminate when std/sqrt(n) of the answers is
	// below RelStd times the column answer std.
	RelStd float64
	// MinAnswers gates termination (default 3).
	MinAnswers int
	// Seed drives random assignment.
	Seed int64

	vs         *voteState
	terminated map[tabular.Cell]bool
	colStd     []float64
	rng        *rand.Rand
}

// Name implements System.
func (*CDAS) Name() string { return "CDAS" }

// Refresh implements System.
func (c *CDAS) Refresh(tbl *tabular.Table, log *tabular.AnswerLog) error {
	if c.Confidence <= 0 {
		c.Confidence = 0.8
	}
	if c.RelStd <= 0 {
		c.RelStd = 0.35
	}
	if c.MinAnswers <= 0 {
		c.MinAnswers = 3
	}
	if c.rng == nil {
		c.rng = stats.NewRNG(c.Seed)
	}
	c.vs = buildVoteState(tbl, log)
	c.colStd = metrics.ColumnDenominators(tbl, log)
	c.terminated = map[tabular.Cell]bool{}
	for i := 0; i < tbl.NumRows(); i++ {
		for j := 0; j < tbl.NumCols(); j++ {
			if c.vs.count[i][j] < c.MinAnswers {
				continue
			}
			cell := tabular.Cell{Row: i, Col: j}
			if tbl.Schema.Columns[j].Type == tabular.Categorical {
				if c.vs.share[i][j] >= c.Confidence {
					c.terminated[cell] = true
				}
			} else {
				sem := math.Sqrt(c.vs.sampleVar[i][j] / float64(c.vs.count[i][j]))
				ref := c.colStd[j]
				if ref <= 0 {
					ref = 1
				}
				if sem <= c.RelStd*ref {
					c.terminated[cell] = true
				}
			}
		}
	}
	return nil
}

// Select implements System.
func (c *CDAS) Select(u tabular.WorkerID, k int, log *tabular.AnswerLog) []tabular.Cell {
	if c.vs == nil {
		return nil
	}
	all := candidateCells(c.vs.tbl, log, u)
	open := all[:0:0]
	for _, cell := range all {
		if !c.terminated[cell] {
			open = append(open, cell)
		}
	}
	if len(open) == 0 {
		open = all // everything confident: keep collecting at random
	}
	if len(open) == 0 {
		return nil
	}
	c.rng.Shuffle(len(open), func(a, b int) { open[a], open[b] = open[b], open[a] })
	if k > len(open) {
		k = len(open)
	}
	return open[:k]
}

// Estimates implements System.
func (c *CDAS) Estimates() metrics.Estimates {
	if c.vs == nil {
		return nil
	}
	return c.vs.est
}

// AskIt implements Boim et al. (ICDE'12): assign the task with the highest
// current uncertainty, inferred by majority vote / median. Uncertainty
// mixes raw Shannon entropy (categorical) with raw differential entropy in
// natural units (continuous) — the incomparability Sec. 5.1 criticises,
// which biases it toward continuous tasks first (Fig. 2's AskIt! shape).
type AskIt struct {
	// Seed drives tie-breaking.
	Seed int64

	vs  *voteState
	rng *rand.Rand
}

// Name implements System.
func (*AskIt) Name() string { return "AskIt!" }

// Refresh implements System.
func (a *AskIt) Refresh(tbl *tabular.Table, log *tabular.AnswerLog) error {
	if a.rng == nil {
		a.rng = stats.NewRNG(a.Seed)
	}
	a.vs = buildVoteState(tbl, log)
	return nil
}

// Select implements System.
func (a *AskIt) Select(u tabular.WorkerID, k int, log *tabular.AnswerLog) []tabular.Cell {
	if a.vs == nil {
		return nil
	}
	cands := candidateCells(a.vs.tbl, log, u)
	if len(cands) == 0 {
		return nil
	}
	scores := make([]float64, len(cands))
	for idx, cell := range cands {
		i, j := cell.Row, cell.Col
		col := a.vs.tbl.Schema.Columns[j]
		if col.Type == tabular.Categorical {
			if a.vs.count[i][j] == 0 {
				scores[idx] = math.Log(float64(col.NumLabels()))
			} else {
				scores[idx] = a.vs.voteEnt[i][j]
			}
		} else {
			// Differential entropy in natural units: unanswered cells use
			// the column domain's variance.
			v := a.vs.sampleVar[i][j]
			if a.vs.count[i][j] < 2 {
				width := col.Max - col.Min
				if width <= 0 {
					width = 1
				}
				v = width * width / 12
			}
			if v < 1e-9 {
				v = 1e-9
			}
			scores[idx] = 0.5 * math.Log(2*math.Pi*math.E*v)
		}
	}
	return topK(cands, scores, k)
}

// Estimates implements System.
func (a *AskIt) Estimates() metrics.Estimates {
	if a.vs == nil {
		return nil
	}
	return a.vs.est
}

// MethodSystem wraps a pure truth-inference method (CRH, CATD, ...) with
// random task assignment — how the paper runs them end-to-end ("they do
// not focus on task assignment, hence tasks are randomly assigned").
type MethodSystem struct {
	Method baselines.Method
	Seed   int64

	tbl *tabular.Table
	est metrics.Estimates
	rng *rand.Rand
}

// Name implements System.
func (ms *MethodSystem) Name() string { return ms.Method.Name() }

// Refresh implements System.
func (ms *MethodSystem) Refresh(tbl *tabular.Table, log *tabular.AnswerLog) error {
	if ms.rng == nil {
		ms.rng = stats.NewRNG(ms.Seed)
	}
	ms.tbl = tbl
	est, err := ms.Method.Infer(tbl, log)
	if err != nil {
		return err
	}
	ms.est = est
	return nil
}

// Select implements System.
func (ms *MethodSystem) Select(u tabular.WorkerID, k int, log *tabular.AnswerLog) []tabular.Cell {
	if ms.tbl == nil {
		return nil
	}
	cands := candidateCells(ms.tbl, log, u)
	if len(cands) == 0 {
		return nil
	}
	ms.rng.Shuffle(len(cands), func(a, b int) { cands[a], cands[b] = cands[b], cands[a] })
	if k > len(cands) {
		k = len(cands)
	}
	return cands[:k]
}

// Estimates implements System.
func (ms *MethodSystem) Estimates() metrics.Estimates { return ms.est }

// Fig2Systems returns the end-to-end line-up of Fig. 2.
func Fig2Systems(seed int64) []System {
	return []System{
		&AskIt{Seed: seed},
		&CDAS{Seed: seed},
		&MethodSystem{Method: baselines.CATD{}, Seed: seed},
		&MethodSystem{Method: baselines.CRH{}, Seed: seed},
		NewTCrowdSystem(seed),
	}
}
