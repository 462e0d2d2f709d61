// Package ingest is the streaming answer store of the EM engine: one
// sufficient-statistics group per distinct (cell, worker, label), kept in
// CSR (compressed sparse row) order and grown in place as answer batches
// land, instead of being rebuilt from the raw log on every refresh.
//
// Motivation. T-Crowd's EM reads an answer only through its (cell, worker,
// label) term: a categorical answer through its label, a continuous answer
// through its value. So a group carries its answer count and, for a
// continuous cell, the running moments of the raw values, and that is all
// the E-step, the M-step and the ELBO need. The decoded answers are only
// Append's staging input; the store keeps no copy of them. On a served
// project, where the platform refuses a second answer by one worker on one
// cell, every group holds exactly one answer.
//
// Layout. Groups are sorted by (cell key, worker, label) where key =
// row*cols + col; GroupOff is the CSR index: cell key k owns
// Groups[GroupOff[k]:GroupOff[k+1]]. The order guarantees two invariants
// the EM hot loops rely on:
//
//   - a cell's groups are one contiguous run (E-step locality), and
//   - groups sharing a (row, column, worker) variance triple sit adjacent,
//     so the fused M-step reuses their transcendental work (memoisation).
//
// Streaming. Append sorts a batch by (cell key, worker, label), folds each
// run into its group in place when the cell already has one, and splices
// the groups it creates with one backward in-place merge: the clean prefix
// is shifted, never re-sorted, so the cost is O(|batch| log |batch| +
// moved groups + cells), not O(|log| log |log|). Cells that received
// answers are tracked as dirty, so the caller can re-run the E-step on
// exactly the posteriors that changed. A cold start is one Append into an
// empty store, so it runs the same code as every later batch.
//
// Determinism: a group's moments are a left fold over its answers in log
// order (the batch sort is stable, and batches arrive in log order), so any
// split of a log into batches yields bitwise the same groups — tcrowd-lint
// (detfold) enforces that no fold here picks up map-order, clock or
// global-rand dependence (//tcrowd:deterministic at the end of this
// comment).
//
// Concurrency. A Log is not safe for concurrent mutation; the owning model
// serialises Append against the EM loops. Read-only access from parallel
// E/M-step shards is safe because shards never mutate the store.
//
//tcrowd:deterministic
package ingest

import (
	"cmp"
	"slices"
)

// Answer is one decoded observation, the staging input of Append: indices
// resolved against the model's worker table, the raw value kept for a
// continuous answer. Append folds it into its group and keeps no copy.
type Answer struct {
	// W, I, J are the worker, row and column indices.
	W, I, J int
	// IsCat marks a categorical answer (Label valid) vs a continuous one
	// (X valid).
	IsCat bool
	// Label is the answered label index of a categorical answer.
	Label int
	// X is the raw (natural-unit) value of a continuous answer.
	X float64
	// ord is the answer's position in its batch, the sort's tiebreak: a
	// run of one group keeps batch order.
	ord int
}

// Group is one sufficient-statistics accumulator: the answers sharing
// (cell, worker, label). For continuous cells Label is the decoded
// answers' (constant) label field and Mean/M2 carry the moments of the raw
// values; for categorical cells they stay zero and Count alone matters.
type Group struct {
	// W, I, J are the worker, row and column indices of every answer in
	// the group.
	W, I, J int32
	// Label is the shared label index (categorical) or the constant label
	// field of the continuous answers.
	Label int32
	// Count is the number of answers in the group.
	Count int32
	// IsCat marks a categorical group.
	IsCat bool
	// Mean and M2 are the Welford moments of a continuous group's raw
	// values, folded in log order (the fold the model's column
	// accumulators use): Mean is their mean and M2 their sum of squared
	// deviations from it. With Count 1, Mean is the raw value and M2 is 0.
	Mean, M2 float64
}

// Log is the mutable CSR group store. The zero value is not usable; call
// NewLog.
type Log struct {
	// Groups holds the sufficient-statistics groups in (cell key, worker,
	// label) order; GroupOff is its CSR index: cell key k owns
	// Groups[GroupOff[k]:GroupOff[k+1]]. Hot loops index them directly;
	// everyone else should treat them as read-only and mutate through
	// Append.
	Groups   []Group
	GroupOff []int32

	rows, cols int
	// n is the number of answers folded in (Σ Count).
	n int
	// dirty flags + insertion-ordered key list of cells touched since the
	// last ClearDirty.
	dirty     []bool
	dirtyKeys []int
}

// NewLog returns an empty store for a rows x cols table.
func NewLog(rows, cols int) *Log {
	return &Log{
		rows:     rows,
		cols:     cols,
		GroupOff: make([]int32, rows*cols+1),
		dirty:    make([]bool, rows*cols),
	}
}

// Rows and Cols return the table dimensions the store indexes.
func (l *Log) Rows() int { return l.rows }

// Cols returns the number of table columns.
func (l *Log) Cols() int { return l.cols }

// Len returns the number of stored answers (the groups' total Count).
func (l *Log) Len() int { return l.n }

// Key returns the cell key of (i, j).
func (l *Log) Key(i, j int) int { return i*l.cols + j }

// GroupRange returns the half-open Groups range of cell key k.
func (l *Log) GroupRange(key int) (lo, hi int) {
	return int(l.GroupOff[key]), int(l.GroupOff[key+1])
}

// NumGroups returns the number of sufficient-statistics groups.
func (l *Log) NumGroups() int { return len(l.Groups) }

// cmp is the batch order: (cell key, worker, label), ties broken by batch
// position, which makes the sort stable.
func (l *Log) cmp(a, b Answer) int {
	if c := cmp.Compare(a.I*l.cols+a.J, b.I*l.cols+b.J); c != 0 {
		return c
	}
	if c := cmp.Compare(a.W, b.W); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Label, b.Label); c != 0 {
		return c
	}
	return cmp.Compare(a.ord, b.ord)
}

// order compares group g with the group answer a belongs to.
func (l *Log) order(g *Group, a *Answer) int {
	if c := cmp.Compare(int(g.I)*l.cols+int(g.J), a.I*l.cols+a.J); c != 0 {
		return c
	}
	if c := cmp.Compare(int(g.W), a.W); c != 0 {
		return c
	}
	return cmp.Compare(int(g.Label), a.Label)
}

// sameGroup reports whether two answers belong to one group.
func sameGroup(a, b *Answer) bool {
	return a.I == b.I && a.J == b.J && a.W == b.W && a.Label == b.Label
}

// fold adds a run of one group's answers to g, in order: the count, and
// for a continuous group the Welford moments of the raw values.
func fold(g *Group, run []Answer) {
	for idx := range run {
		g.Count++
		if !g.IsCat {
			x := run[idx].X
			d := x - g.Mean
			g.Mean += d / float64(g.Count)
			g.M2 += d * (x - g.Mean)
		}
	}
}

// Append folds a batch of decoded answers, in log order, into the store
// and marks their cells dirty. The batch is sorted in place (the caller's
// slice is reordered). A run that extends a group already in the store
// folds into it in place; the groups the batch creates are spliced in by
// one backward merge that moves each later group at most once, so the
// clean prefix is never re-sorted, only shifted.
func (l *Log) Append(batch []Answer) {
	if len(batch) == 0 {
		return
	}
	for idx := range batch {
		batch[idx].ord = idx
	}
	slices.SortFunc(batch, l.cmp)
	l.n += len(batch)

	// Forward pass over the batch's runs: fold a run into its group when
	// the cell has one, count the runs that open a new group, and shift
	// each cell's end offset by the new groups at or before it. When cell
	// key is searched, GroupOff[key] is already shifted by the new groups
	// before it (base), GroupOff[key+1] not yet.
	var added, base int32
	next, prevKey := batch[0].I*l.cols+batch[0].J, -1
	for lo := 0; lo < len(batch); {
		a := &batch[lo]
		hi := lo + 1
		for hi < len(batch) && sameGroup(a, &batch[hi]) {
			hi++
		}
		key := a.I*l.cols + a.J
		if key != prevKey {
			prevKey = key
			l.MarkDirty(key)
			for ; next < key; next++ {
				l.GroupOff[next+1] += added
			}
			base = added
		}
		if g := l.find(int(l.GroupOff[key]-base), int(l.GroupOff[key+1]), a); g >= 0 {
			fold(&l.Groups[g], batch[lo:hi])
		} else {
			added++
		}
		lo = hi
	}
	if added == 0 {
		return
	}
	for ; next < l.rows*l.cols; next++ {
		l.GroupOff[next+1] += added
	}

	// Backward in-place merge: walk the runs from the last, move every
	// group that sorts after the run up by the number of new groups still
	// to place, and write a new group into the gap when the run opened
	// one. Growth goes through slices.Grow, so streamed appends reallocate
	// (and copy the clean prefix) only amortised-O(1) times per group.
	old := len(l.Groups)
	l.Groups = slices.Grow(l.Groups, int(added))[:old+int(added)]
	i, k := old-1, old+int(added)-1
	for hi := len(batch); k > i; {
		lo := hi - 1
		for lo > 0 && sameGroup(&batch[lo-1], &batch[lo]) {
			lo--
		}
		a := &batch[lo]
		for i >= 0 && l.order(&l.Groups[i], a) > 0 {
			l.Groups[k] = l.Groups[i]
			i--
			k--
		}
		if i < 0 || l.order(&l.Groups[i], a) != 0 {
			g := Group{
				W: int32(a.W), I: int32(a.I), J: int32(a.J),
				Label: int32(a.Label), IsCat: a.IsCat,
			}
			fold(&g, batch[lo:hi])
			l.Groups[k] = g
			k--
		}
		hi = lo
	}
}

// find returns the index in Groups[lo:hi] (one cell's groups) of a's
// group, or -1 when the cell has none.
func (l *Log) find(lo, hi int, a *Answer) int {
	for g := lo; g < hi; g++ {
		if gr := &l.Groups[g]; int(gr.W) == a.W && int(gr.Label) == a.Label {
			return g
		}
	}
	return -1
}

// MarkDirty flags a cell key as needing posterior recomputation.
func (l *Log) MarkDirty(key int) {
	if !l.dirty[key] {
		l.dirty[key] = true
		l.dirtyKeys = append(l.dirtyKeys, key)
	}
}

// DirtyKeys returns the cell keys touched since the last ClearDirty, in
// first-touched order. The slice is owned by the log; callers must not
// retain it across ClearDirty.
func (l *Log) DirtyKeys() []int { return l.dirtyKeys }

// ClearDirty resets the dirty set (groups stay).
func (l *Log) ClearDirty() {
	for _, key := range l.dirtyKeys {
		l.dirty[key] = false
	}
	l.dirtyKeys = l.dirtyKeys[:0]
}
