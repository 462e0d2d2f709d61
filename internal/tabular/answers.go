package tabular

import (
	"fmt"
	"maps"
	"sort"
)

// WorkerID identifies a crowd worker.
type WorkerID string

// Answer is one observation a^u_ij: worker u's value for cell c_ij
// (Definition 2 of the paper).
type Answer struct {
	Worker WorkerID
	Cell   Cell
	Value  Value
}

// AnswerLog is the append-only set A of all collected answers, indexed both
// by cell (for the E-step, which needs A_ij) and by worker (for the M-step
// and the per-worker error histories of the correlation model).
//
// Worker IDs are interned: every stored answer of one worker shares the
// ID string of its first answer, so an ID decoded afresh per request is
// not kept once per answer.
//
// The zero value is not usable; call NewAnswerLog.
type AnswerLog struct {
	all    []Answer
	byCell map[Cell][]int
	// workerIdx maps a worker to its index in workers and byWorker.
	workerIdx map[WorkerID]int
	workers   []WorkerID // insertion-ordered unique workers
	// byWorker[k] lists the indices (into all) of workers[k]'s answers.
	byWorker [][]int32
}

// NewAnswerLog returns an empty log.
func NewAnswerLog() *AnswerLog {
	return &AnswerLog{
		byCell:    make(map[Cell][]int),
		workerIdx: make(map[WorkerID]int),
	}
}

// Add appends an answer.
func (l *AnswerLog) Add(a Answer) {
	idx := len(l.all)
	k, seen := l.workerIdx[a.Worker]
	if seen {
		a.Worker = l.workers[k]
	} else {
		k = len(l.workers)
		l.workerIdx[a.Worker] = k
		l.workers = append(l.workers, a.Worker)
		l.byWorker = append(l.byWorker, nil)
	}
	l.all = append(l.all, a)
	l.byCell[a.Cell] = append(l.byCell[a.Cell], idx)
	l.byWorker[k] = append(l.byWorker[k], int32(idx))
}

// answersOf returns the indices of worker u's answers (nil when unseen).
func (l *AnswerLog) answersOf(u WorkerID) []int32 {
	if k, ok := l.workerIdx[u]; ok {
		return l.byWorker[k]
	}
	return nil
}

// AddAll appends every answer in as.
func (l *AnswerLog) AddAll(as []Answer) {
	for _, a := range as {
		l.Add(a)
	}
}

// Len returns |A|.
func (l *AnswerLog) Len() int { return len(l.all) }

// All returns the backing slice of answers in insertion order. The caller
// must not modify it. Appends never modify the returned prefix, so a
// caller may read it after releasing the lock that guards the writers.
func (l *AnswerLog) All() []Answer { return l.all }

// At returns the i-th answer in insertion order.
func (l *AnswerLog) At(i int) Answer { return l.all[i] }

// ByCell returns the answers A_ij for one cell, in insertion order. The
// returned slice is freshly allocated.
func (l *AnswerLog) ByCell(c Cell) []Answer {
	idxs := l.byCell[c]
	out := make([]Answer, len(idxs))
	for k, i := range idxs {
		out[k] = l.all[i]
	}
	return out
}

// CountByCell returns |A_ij| without allocating.
func (l *AnswerLog) CountByCell(c Cell) int { return len(l.byCell[c]) }

// CellIndices returns the indices (into All / At) of the answers on cell c,
// in insertion order — the zero-allocation counterpart of ByCell for hot
// paths that only walk a cell's answers. The returned slice is the log's
// internal index: callers must not mutate it and must not retain it across
// appends.
func (l *AnswerLog) CellIndices(c Cell) []int { return l.byCell[c] }

// ByWorker returns all answers by worker u, in insertion order.
func (l *AnswerLog) ByWorker(u WorkerID) []Answer {
	idxs := l.answersOf(u)
	out := make([]Answer, len(idxs))
	for k, i := range idxs {
		out[k] = l.all[i]
	}
	return out
}

// CountByWorker returns the number of answers worker u has given.
func (l *AnswerLog) CountByWorker(u WorkerID) int { return len(l.answersOf(u)) }

// Workers returns the distinct workers in first-seen order. The returned
// slice is freshly allocated.
func (l *AnswerLog) Workers() []WorkerID {
	return append([]WorkerID(nil), l.workers...)
}

// NumWorkers returns the number of distinct workers.
func (l *AnswerLog) NumWorkers() int { return len(l.workers) }

// HasAnswered reports whether worker u already answered cell c. Task
// assignment must never hand the same cell to the same worker twice.
func (l *AnswerLog) HasAnswered(u WorkerID, c Cell) bool {
	for _, i := range l.answersOf(u) {
		if l.all[i].Cell == c {
			return true
		}
	}
	return false
}

// WorkerAnswerIn returns worker u's answer in row i on column j, if any.
func (l *AnswerLog) WorkerAnswerIn(u WorkerID, c Cell) (Answer, bool) {
	for _, i := range l.answersOf(u) {
		if l.all[i].Cell == c {
			return l.all[i], true
		}
	}
	return Answer{}, false
}

// RowAnswersByWorker returns the cells in row i that worker u has answered,
// with their answers — the set L^u_i of Eq. 7.
func (l *AnswerLog) RowAnswersByWorker(u WorkerID, row int) []Answer {
	var out []Answer
	for _, i := range l.answersOf(u) {
		if l.all[i].Cell.Row == row {
			out = append(out, l.all[i])
		}
	}
	return out
}

// AvgAnswersPerCell returns |A| divided by the number of distinct answered
// cells (the x-axis of the paper's Fig. 2/5 convergence plots uses budget /
// #tasks; this helper reports the realised average).
func (l *AnswerLog) AvgAnswersPerCell() float64 {
	if len(l.byCell) == 0 {
		return 0
	}
	return float64(len(l.all)) / float64(len(l.byCell))
}

// Clone returns a deep, independent copy of the log.
func (l *AnswerLog) Clone() *AnswerLog {
	out := NewAnswerLog()
	out.all = append([]Answer(nil), l.all...)
	for c, idxs := range l.byCell {
		out.byCell[c] = append([]int(nil), idxs...)
	}
	out.workerIdx = maps.Clone(l.workerIdx)
	out.workers = append([]WorkerID(nil), l.workers...)
	out.byWorker = make([][]int32, len(l.byWorker))
	for k, idxs := range l.byWorker {
		out.byWorker[k] = append([]int32(nil), idxs...)
	}
	return out
}

// Validate checks every answer against the table schema and bounds.
func (l *AnswerLog) Validate(t *Table) error {
	for i, a := range l.all {
		if a.Cell.Row < 0 || a.Cell.Row >= t.NumRows() || a.Cell.Col < 0 || a.Cell.Col >= t.NumCols() {
			return fmt.Errorf("tabular: answer %d addresses %v outside %dx%d table", i, a.Cell, t.NumRows(), t.NumCols())
		}
		if a.Worker == "" {
			return fmt.Errorf("tabular: answer %d has empty worker id", i)
		}
		if err := a.Value.CheckAgainst(t.Schema.Columns[a.Cell.Col]); err != nil {
			return fmt.Errorf("tabular: answer %d: %w", i, err)
		}
	}
	return nil
}

// SortedWorkers returns worker ids sorted lexicographically; used where
// deterministic iteration over map-backed state matters (reports, tests).
func (l *AnswerLog) SortedWorkers() []WorkerID {
	ws := l.Workers()
	sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
	return ws
}

// CellsAnswered returns the distinct cells with at least one answer, in
// row-major order.
func (l *AnswerLog) CellsAnswered() []Cell {
	out := make([]Cell, 0, len(l.byCell))
	for c := range l.byCell {
		out = append(out, c)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Row != out[b].Row {
			return out[a].Row < out[b].Row
		}
		return out[a].Col < out[b].Col
	})
	return out
}
