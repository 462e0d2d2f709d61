package tabular

import (
	"fmt"
	"maps"
	"math"
	"slices"
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
// by cell (A_ij, for the E-step and the error model) and by worker (the
// per-worker histories of the M-step and the correlation model).
//
// The log keeps no Answer values. It stores answers column-wise: per
// answer a row and a worker index (int32), a column (int16), the value's
// kind and one 64-bit payload (a label's index or a number's bits), plus a
// link to the next answer on the same cell and the answer's place in its
// worker's list — 27 bytes before append slack. A cell's (first, last, count)
// head lives in a flat grid that grows with the answered area; a cell the
// grid does not cover (a negative coordinate, or one far outside the
// answered area) keeps its head in a small side map, so no input sizes the
// grid past a small multiple of the log. Worker IDs are interned: every
// answer of one worker reads back the ID string of its first answer. A
// Value reads back with its Kind and the payload that kind uses (L of a
// Label, X of a Number, bit for bit).
//
// Readers that run without the writers' lock take a Prefix: an immutable
// view of the answers so far, which later appends never write into. All
// returns a fresh copy of the whole log, for callers that copy once per
// run; serving code reads views.
//
// The zero value is not usable; call NewAnswerLog.
type AnswerLog struct {
	// answers is the column store, with the interned workers and the far
	// cells its records name; Prefix hands out a copy of it.
	answers AnswerView
	// next[i] is the next answer on answer i's cell, or -1. An append
	// rewrites its cell's tail link, so no view reads next.
	next []int32
	// grid holds the heads of the cells [0, len(grid)/gridCols) x
	// [0, gridCols), row-major. A cell the grid covers has its head here.
	grid     []cellHead
	gridCols int
	// far maps every answered cell the grid does not cover to its slot
	// in answers.farCells and farHeads.
	far      map[Cell]int32
	farHeads []cellHead

	// workerIdx maps a worker to its index in answers.workers and
	// byWorker.
	workerIdx map[WorkerID]int32
	// byWorker[k] lists the indices of worker k's answers.
	byWorker [][]int32
}

// AnswerView is an immutable run of a log's answers: a Prefix, or a Slice
// of one. The log's appends never write inside a view, so a view taken
// under the writers' lock may be read after the lock is released. Copying
// a view copies no answers.
type AnswerView struct {
	// Answer i is worker workers[worker[i]]'s value on cell (row[i],
	// col[i]), of kind kind[i] with payload val[i]. A wide cell, whose
	// coordinates do not fit the columns, stores col wideCol and its far
	// slot as row.
	row, worker []int32
	col         []int16
	kind        []uint8
	val         []uint64
	workers     []WorkerID // insertion-ordered unique workers
	farCells    []Cell     // farCells[s] is the cell of far slot s
}

// cellHead is one cell's answer chain: its first and last answer and how
// many it has (n == 0 for an unanswered cell).
type cellHead struct{ first, last, n int32 }

const (
	// wideCol marks a stored column whose cell lives in farCells.
	wideCol = math.MinInt16
	// minGridCells and gridPerAnswer bound the head grid: it covers at
	// most max(minGridCells, gridPerAnswer·Len()) cells.
	minGridCells  = 1 << 12
	gridPerAnswer = 4
)

// NewAnswerLog returns an empty log.
func NewAnswerLog() *AnswerLog {
	return &AnswerLog{workerIdx: make(map[WorkerID]int32)}
}

// Add appends an answer.
func (l *AnswerLog) Add(a Answer) {
	idx := int32(l.Len())
	v := &l.answers
	k, seen := l.workerIdx[a.Worker]
	if !seen {
		k = int32(len(v.workers))
		l.workerIdx[a.Worker] = k
		v.workers = append(v.workers, a.Worker)
		l.byWorker = append(l.byWorker, nil)
	}
	h, slot := l.headOf(a.Cell)
	if h.n == 0 {
		h.first = idx
	} else {
		l.next[h.last] = idx
	}
	h.last = idx
	h.n++
	l.next = append(l.next, -1)

	row, col := int32(a.Cell.Row), int16(a.Cell.Col)
	if slot >= 0 {
		row, col = slot, wideCol
	}
	kind, val := encodeValue(a.Value)
	v.row = append(v.row, row)
	v.col = append(v.col, col)
	v.worker = append(v.worker, k)
	v.kind = append(v.kind, kind)
	v.val = append(v.val, val)
	l.byWorker[k] = append(l.byWorker[k], idx)
}

// encodeValue returns a value's stored kind and payload.
func encodeValue(v Value) (uint8, uint64) {
	switch v.Kind {
	case Label:
		return uint8(Label), uint64(int64(v.L))
	case Number:
		return uint8(Number), math.Float64bits(v.X)
	default:
		return uint8(v.Kind), 0
	}
}

// wide reports whether c's coordinates do not fit the row and column
// columns.
func wide(c Cell) bool {
	return c.Row < math.MinInt32 || c.Row > math.MaxInt32 || c.Col <= wideCol || c.Col > math.MaxInt16
}

// gridIndex returns c's index in the grid, or -1 when the grid does not
// cover c.
func (l *AnswerLog) gridIndex(c Cell) int {
	if c.Col < 0 || c.Col >= l.gridCols || c.Row < 0 || c.Row >= len(l.grid)/l.gridCols {
		return -1
	}
	return c.Row*l.gridCols + c.Col
}

// head returns c's head (zero for an unanswered cell).
func (l *AnswerLog) head(c Cell) cellHead {
	if k := l.gridIndex(c); k >= 0 {
		return l.grid[k]
	}
	if s, ok := l.far[c]; ok {
		return l.farHeads[s]
	}
	return cellHead{}
}

// headOf returns c's head for an append, placing a first-seen cell in the
// grid (grown if the bound allows) or in the far map. slot is c's far slot
// when c is wide, and -1 otherwise.
func (l *AnswerLog) headOf(c Cell) (h *cellHead, slot int32) {
	if k := l.gridIndex(c); k >= 0 {
		return &l.grid[k], -1
	}
	s, ok := l.far[c]
	if !ok {
		if l.growGridFor(c) {
			return &l.grid[l.gridIndex(c)], -1
		}
		if l.far == nil {
			l.far = make(map[Cell]int32)
		}
		s = int32(len(l.farHeads))
		l.far[c] = s
		l.answers.farCells = append(l.answers.farCells, c)
		l.farHeads = append(l.farHeads, cellHead{})
	}
	if wide(c) {
		return &l.farHeads[s], s
	}
	return &l.farHeads[s], -1
}

// growGridFor grows the grid to cover c when the grown grid stays within
// max(minGridCells, gridPerAnswer·Len()) cells, moving the far cells it
// now covers into it. It reports whether the grid covers c.
func (l *AnswerLog) growGridFor(c Cell) bool {
	if c.Row < 0 || c.Col < 0 || wide(c) {
		// A wide cell never enters the grid: its records name its far slot.
		return false
	}
	limit := max(minGridCells, gridPerAnswer*(l.Len()+1))
	rows, cols := 0, l.gridCols
	if cols > 0 {
		rows = len(l.grid) / cols
	}
	nr, nc := max(rows, c.Row+1), max(cols, c.Col+1)
	if nr > limit/nc {
		return false
	}
	if nc == cols {
		l.grid = append(l.grid, make([]cellHead, (nr-rows)*nc)...)
	} else {
		g := make([]cellHead, nr*nc)
		for i := 0; i < rows; i++ {
			copy(g[i*nc:i*nc+cols], l.grid[i*cols:(i+1)*cols])
		}
		l.grid, l.gridCols = g, nc
	}
	for fc, s := range l.far {
		if k := l.gridIndex(fc); k >= 0 {
			l.grid[k] = l.farHeads[s]
			delete(l.far, fc)
		}
	}
	if l.far != nil && len(l.far) == 0 {
		// Every far cell moved in, so none is wide: no record reads
		// farCells any more.
		l.far, l.answers.farCells, l.farHeads = nil, nil, nil
	}
	return true
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
func (l *AnswerLog) Len() int { return len(l.next) }

// Prefix returns an immutable view of the log's first Len() answers. Take
// it under the lock that guards the writers; appends never write inside
// it, so it may be read after the lock is released.
func (l *AnswerLog) Prefix() AnswerView { return l.answers }

// All returns a fresh copy of every answer in insertion order. It copies
// the whole log: serving paths read a Prefix instead.
func (l *AnswerLog) All() []Answer { return l.answers.AppendTo(nil) }

// At returns the i-th answer in insertion order.
func (l *AnswerLog) At(i int) Answer { return l.answers.At(i) }

// ByCell returns the answers A_ij for one cell, in insertion order. The
// returned slice is freshly allocated.
func (l *AnswerLog) ByCell(c Cell) []Answer {
	out := make([]Answer, 0, l.head(c).n)
	it := l.CellAnswers(c)
	for i, ok := it.Next(); ok; i, ok = it.Next() {
		out = append(out, l.At(i))
	}
	return out
}

// CountByCell returns |A_ij| without allocating.
func (l *AnswerLog) CountByCell(c Cell) int { return int(l.head(c).n) }

// CellAnswers returns an iterator over the indices (into At) of cell c's
// answers, in insertion order. It allocates nothing and walks the answers
// the cell held when it was taken; like every log method, it must not
// run concurrently with an append.
func (l *AnswerLog) CellAnswers(c Cell) CellIter {
	h := l.head(c)
	return CellIter{next: l.next, i: h.first, left: h.n}
}

// CellIter walks one cell's answers; see AnswerLog.CellAnswers.
type CellIter struct {
	next    []int32
	i, left int32
}

// Next returns the next answer's index, or false when the cell has no
// more answers.
func (it *CellIter) Next() (int, bool) {
	if it.left == 0 {
		return 0, false
	}
	i := it.i
	it.i = it.next[i]
	it.left--
	return int(i), true
}

// ByWorker returns all answers by worker u, in insertion order.
func (l *AnswerLog) ByWorker(u WorkerID) []Answer {
	idxs := l.answersOf(u)
	out := make([]Answer, len(idxs))
	for k, i := range idxs {
		out[k] = l.At(int(i))
	}
	return out
}

// CountByWorker returns the number of answers worker u has given.
func (l *AnswerLog) CountByWorker(u WorkerID) int { return len(l.answersOf(u)) }

// Workers returns the distinct workers in first-seen order. The returned
// slice is freshly allocated.
func (l *AnswerLog) Workers() []WorkerID {
	return slices.Clone(l.answers.workers)
}

// NumWorkers returns the number of distinct workers.
func (l *AnswerLog) NumWorkers() int { return len(l.answers.workers) }

// HasAnswered reports whether worker u already answered cell c. Task
// assignment must never hand the same cell to the same worker twice.
func (l *AnswerLog) HasAnswered(u WorkerID, c Cell) bool {
	_, ok := l.WorkerAnswerIn(u, c)
	return ok
}

// WorkerAnswerIn returns worker u's first answer on cell c, if any.
func (l *AnswerLog) WorkerAnswerIn(u WorkerID, c Cell) (Answer, bool) {
	for _, i := range l.answersOf(u) {
		if l.answers.cell(int(i)) == c {
			return l.At(int(i)), true
		}
	}
	return Answer{}, false
}

// RowAnswersByWorker returns the cells in row i that worker u has answered,
// with their answers — the set L^u_i of Eq. 7.
func (l *AnswerLog) RowAnswersByWorker(u WorkerID, row int) []Answer {
	var out []Answer
	for _, i := range l.answersOf(u) {
		if l.answers.cell(int(i)).Row == row {
			out = append(out, l.At(int(i)))
		}
	}
	return out
}

// Clone returns a deep, independent copy of the log.
func (l *AnswerLog) Clone() *AnswerLog {
	v := &l.answers
	out := &AnswerLog{
		answers: AnswerView{
			row:      slices.Clone(v.row),
			worker:   slices.Clone(v.worker),
			col:      slices.Clone(v.col),
			kind:     slices.Clone(v.kind),
			val:      slices.Clone(v.val),
			workers:  slices.Clone(v.workers),
			farCells: slices.Clone(v.farCells),
		},
		next:      slices.Clone(l.next),
		grid:      slices.Clone(l.grid),
		gridCols:  l.gridCols,
		far:       maps.Clone(l.far),
		farHeads:  slices.Clone(l.farHeads),
		workerIdx: maps.Clone(l.workerIdx),
		byWorker:  make([][]int32, len(l.byWorker)),
	}
	for k, idxs := range l.byWorker {
		out.byWorker[k] = slices.Clone(idxs)
	}
	return out
}

// Validate checks every answer against the table schema and bounds.
func (l *AnswerLog) Validate(t *Table) error {
	for i := 0; i < l.Len(); i++ {
		a := l.At(i)
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

// Len returns the number of answers in the view.
func (v AnswerView) Len() int { return len(v.row) }

// Slice returns the view of answers [lo, hi) of v.
func (v AnswerView) Slice(lo, hi int) AnswerView {
	v.row, v.worker, v.col = v.row[lo:hi], v.worker[lo:hi], v.col[lo:hi]
	v.kind, v.val = v.kind[lo:hi], v.val[lo:hi]
	return v
}

// AppendTo appends the view's answers, in order, to dst and returns the
// extended slice.
func (v AnswerView) AppendTo(dst []Answer) []Answer {
	dst = slices.Grow(dst, v.Len())
	for i := 0; i < v.Len(); i++ {
		dst = append(dst, v.At(i))
	}
	return dst
}

// cell returns the cell of answer i.
func (v AnswerView) cell(i int) Cell {
	if j := v.col[i]; j != wideCol {
		return Cell{Row: int(v.row[i]), Col: int(j)}
	}
	return v.farCells[v.row[i]]
}

// At returns the view's i-th answer.
func (v AnswerView) At(i int) Answer {
	a := Answer{Worker: v.workers[v.worker[i]], Cell: v.cell(i)}
	switch kind, val := ValueKind(v.kind[i]), v.val[i]; kind {
	case Label:
		a.Value = Value{Kind: Label, L: int(int64(val))}
	case Number:
		a.Value = Value{Kind: Number, X: math.Float64frombits(val)}
	default:
		a.Value = Value{Kind: kind}
	}
	return a
}
