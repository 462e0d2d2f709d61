// Package assign implements T-Crowd's online task assignment (Sec. 5): the
// delta-entropy inherent information gain (Eq. 6) that makes categorical
// and continuous tasks comparable, the attribute-correlation error model
// behind structure-aware information gain (Eq. 7, Tables 4-5), batch top-K
// selection (Sec. 5.3), the heuristic policies of Fig. 5, the competitor
// systems of Fig. 2 (CDAS, AskIt!, CRH, CATD with random assignment), and
// a budgeted online simulator that replays the AMT protocol.
//
// A State is one fitted model ready for selection. NewState also caches
// the worker-independent terms of every cell's gain (posterior, p ln p,
// entropy, continuous variance), so StructureIG scores an arrival with
// only the worker's variance and row errors left to compute; InfoGain and
// StructInfoGain stay as its per-cell reference. A State is read-only
// while it serves: one published State answers concurrent selections.
package assign

import (
	"math"
	"math/rand"

	"tcrowd/internal/core"
	"tcrowd/internal/metrics"
	"tcrowd/internal/stats"
	"tcrowd/internal/tabular"
)

// State is everything a selection policy may consult: the fitted inference
// model, the answers so far, the (optional) attribute-correlation error
// model, and a random stream for tie-breaking.
type State struct {
	Model *core.Model
	// Log holds at least the arriving worker's answers, all that policies
	// consult (the whole log offline, the worker's own when serving).
	Log *tabular.AnswerLog
	// Est caches Model.Estimates() for the current refresh.
	Est metrics.Estimates
	// Err is the fitted attribute-correlation model; nil for policies that
	// do not use structure.
	Err *ErrorModel
	RNG *rand.Rand

	// terms caches Model's worker-independent gain terms (NewState); a
	// State built by hand has none and StructureIG derives them per call.
	terms *cellTerms
}

// NewState builds the selection state of a fitted model m with estimates
// est, plus — with structure set — the error model fitted on est and fit,
// a view of the answers m was fitted on (read, not retained). Log and RNG
// are the caller's.
// The state caches m's gain terms: a caller that then changes m in place
// must refresh them (see TCrowdSystem.applyRefresh).
func NewState(m *core.Model, fit tabular.AnswerView, est metrics.Estimates, structure bool) *State {
	st := &State{Model: m, Est: est, terms: newCellTerms(m)}
	if structure {
		st.Err = NewErrorModel(m)
		st.Err.Rebuild(fit, est)
	}
	return st
}

// Policy selects which cells to hand to an arriving worker. All policies
// must avoid cells the worker already answered.
type Policy interface {
	// Name is the display name used in Fig. 5.
	Name() string
	// Select returns up to k cells for worker u, best first.
	Select(st *State, u tabular.WorkerID, k int) []tabular.Cell
}

// System is a complete crowdsourcing pipeline for the end-to-end comparison
// (Fig. 2): inference plus assignment plus any internal bookkeeping (e.g.
// CDAS task termination).
type System interface {
	// Name is the display name used in Fig. 2.
	Name() string
	// Refresh re-runs the system's inference over the current log.
	Refresh(tbl *tabular.Table, log *tabular.AnswerLog) error
	// Select returns up to k cells to assign to worker u.
	Select(u tabular.WorkerID, k int, log *tabular.AnswerLog) []tabular.Cell
	// Estimates returns the system's current truth estimates.
	Estimates() metrics.Estimates
}

// candidateCells lists cells worker u may still answer, in row-major order.
func candidateCells(tbl *tabular.Table, log *tabular.AnswerLog, u tabular.WorkerID) []tabular.Cell {
	// Collect u's answered cells once instead of calling HasAnswered per
	// cell (which scans the worker's history each time).
	answered := map[tabular.Cell]bool{}
	for _, a := range log.ByWorker(u) {
		answered[a.Cell] = true
	}
	var out []tabular.Cell
	for i := 0; i < tbl.NumRows(); i++ {
		for j := 0; j < tbl.NumCols(); j++ {
			c := tabular.Cell{Row: i, Col: j}
			if !answered[c] {
				out = append(out, c)
			}
		}
	}
	return out
}

// sFromQuality inverts q = erf(eps / sqrt(2 s)) to the effective variance
// that a worker of quality q carries. Quality is clamped away from {0, 1}.
func sFromQuality(eps, q float64) float64 {
	q = stats.Clamp(q, 1e-9, 1-1e-12)
	x := math.Erfinv(q)
	if x <= 0 {
		return maxEffectiveVariance
	}
	return stats.Clamp(eps*eps/(2*x*x), minEffectiveVariance, maxEffectiveVariance)
}

const (
	minEffectiveVariance = 1e-8
	maxEffectiveVariance = 1e8
)

// scored is a candidate cell and its score.
type scored struct {
	c tabular.Cell
	s float64
}

// topK returns the k cells with the highest scores (greedy, Sec. 5.3).
func topK(cells []tabular.Cell, scores []float64, k int) []tabular.Cell {
	ps := make([]scored, len(cells))
	for i := range cells {
		ps[i] = scored{cells[i], scores[i]}
	}
	return topKScored(ps, k)
}

// topKScored is topK over candidates in row-major order, reordering ps in
// place: a partial selection sort (k is a HIT's worth of tasks) in which
// the first of equal scores, in the current order, wins.
func topKScored(ps []scored, k int) []tabular.Cell {
	if k > len(ps) {
		k = len(ps)
	}
	for sel := 0; sel < k; sel++ {
		best := sel
		for i := sel + 1; i < len(ps); i++ {
			if ps[i].s > ps[best].s {
				best = i
			}
		}
		ps[sel], ps[best] = ps[best], ps[sel]
	}
	out := make([]tabular.Cell, k)
	for i := 0; i < k; i++ {
		out[i] = ps[i].c
	}
	return out
}
