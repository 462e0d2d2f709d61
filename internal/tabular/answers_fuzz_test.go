package tabular

import (
	"math"
	"slices"
	"testing"
)

// fuzzCell maps two op bytes onto a cell: mostly a small table, with
// repeats, and sometimes a far-out, negative or wide cell.
func fuzzCell(kind, arg byte) Cell {
	switch kind % 16 {
	case 0:
		return Cell{Row: 999, Col: int(arg % 4)}
	case 1:
		return Cell{Row: -1 - int(arg%3), Col: int(arg % 2)}
	case 2:
		return Cell{Row: 1 << 40, Col: int(arg % 3)}
	case 3:
		return Cell{Row: int(arg % 4), Col: 1 << 20}
	case 4:
		return Cell{Row: math.MinInt32, Col: int(arg % 2)}
	case 5:
		return Cell{Row: int(arg) * 97, Col: int(arg % 6)}
	}
	return Cell{Row: int(arg % 12), Col: int(arg / 12 % 5)}
}

// fuzzValue maps three op bytes onto a value of one of the three kinds;
// the numbers include NaNs, infinities and negative zero.
func fuzzValue(kind, a, b byte) Value {
	switch kind % 3 {
	case 0:
		return Value{}
	case 1:
		return LabelValue(int(int8(a)))
	}
	return NumberValue(math.Float64frombits(uint64(a)<<56 | uint64(b)<<48 | uint64(a^b)))
}

func sameAnswer(a, b Answer) bool {
	return a.Worker == b.Worker && a.Cell == b.Cell && a.Value.Kind == b.Value.Kind &&
		a.Value.L == b.Value.L && math.Float64bits(a.Value.X) == math.Float64bits(b.Value.X)
}

func sameAnswers(t *testing.T, what string, got, want []Answer) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !sameAnswer(got[i], want[i]) {
			t.Fatalf("%s[%d] = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// checkAgainstReference compares every read of l with the naive answer
// list ref it should hold.
func checkAgainstReference(t *testing.T, l *AnswerLog, ref []Answer) {
	t.Helper()
	if l.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", l.Len(), len(ref))
	}
	at := make([]Answer, l.Len())
	for i := range at {
		at[i] = l.At(i)
	}
	sameAnswers(t, "At", at, ref)
	sameAnswers(t, "All", l.All(), ref)

	byCell := map[Cell][]Answer{}
	byWorker := map[WorkerID][]Answer{}
	var cells []Cell
	var workers []WorkerID
	for _, a := range ref {
		if _, ok := byCell[a.Cell]; !ok {
			cells = append(cells, a.Cell)
		}
		if _, ok := byWorker[a.Worker]; !ok {
			workers = append(workers, a.Worker)
		}
		byCell[a.Cell] = append(byCell[a.Cell], a)
		byWorker[a.Worker] = append(byWorker[a.Worker], a)
	}
	probe := append(cells, Cell{Row: 3, Col: 7}, Cell{Row: -9, Col: 0}, Cell{Row: 1 << 41})
	for _, c := range probe {
		want := byCell[c]
		sameAnswers(t, "ByCell", l.ByCell(c), want)
		var walked []Answer
		it := l.CellAnswers(c)
		for i, ok := it.Next(); ok; i, ok = it.Next() {
			walked = append(walked, l.At(i))
		}
		sameAnswers(t, "CellAnswers", walked, want)
		if got := l.CountByCell(c); got != len(want) {
			t.Fatalf("CountByCell(%v) = %d, want %d", c, got, len(want))
		}
	}
	if got := l.Workers(); !slices.Equal(got, workers) {
		t.Fatalf("Workers = %v, want %v", got, workers)
	}
	for _, u := range append(workers, "nobody") {
		mine := byWorker[u]
		sameAnswers(t, "ByWorker", l.ByWorker(u), mine)
		if got := l.CountByWorker(u); got != len(mine) {
			t.Fatalf("CountByWorker(%s) = %d, want %d", u, got, len(mine))
		}
		for _, c := range probe {
			var first *Answer
			for k := range mine {
				if mine[k].Cell == c {
					first = &mine[k]
					break
				}
			}
			a, ok := l.WorkerAnswerIn(u, c)
			if ok != (first != nil) || l.HasAnswered(u, c) != ok || (ok && !sameAnswer(a, *first)) {
				t.Fatalf("WorkerAnswerIn(%s, %v) = %+v, %v; want %+v", u, c, a, ok, first)
			}
			var row []Answer
			for _, a := range mine {
				if a.Cell.Row == c.Row {
					row = append(row, a)
				}
			}
			sameAnswers(t, "RowAnswersByWorker", l.RowAnswersByWorker(u, c.Row), row)
		}
	}
}

// FuzzAnswerLog runs sequences of Add over a small worker pool, repeated,
// far-out, negative and wide cells and all three value kinds, and checks
// every read of the log against a naive []Answer reference after each op.
// Views taken along the way must keep reading the same answers, and a
// clone must not see the adds made to the original after it.
func FuzzAnswerLog(f *testing.F) {
	f.Add([]byte{0, 6, 1, 1, 2, 3, 1, 6, 1, 2, 0x7f, 0xf8, 2, 7, 13, 0, 0, 0})
	f.Add([]byte{0, 0, 2, 1, 3, 0, 1, 1, 1, 2, 0, 0, 2, 2, 9, 1, 4, 4, 3, 3, 3, 2, 0xff, 0xf1, 4, 4, 0, 0, 0, 0})
	f.Add([]byte{5, 5, 200, 1, 1, 1, 5, 6, 30, 2, 1, 2, 5, 5, 250, 0, 0, 0, 1, 6, 30, 1, 5, 5, 2, 6, 30, 2, 0x80, 0})
	workers := []WorkerID{"w0", "w1", "w2", "w3", "w4"}
	f.Fuzz(func(t *testing.T, ops []byte) {
		type view struct {
			v AnswerView
			n int
		}
		l := NewAnswerLog()
		var ref []Answer
		var views []view
		var clone *AnswerLog
		var cloneRef []Answer
		for ; len(ops) >= 6 && len(ref) < 200; ops = ops[6:] {
			op := ops[:6]
			a := Answer{
				Worker: workers[int(op[0])%len(workers)],
				Cell:   fuzzCell(op[1], op[2]),
				Value:  fuzzValue(op[3], op[4], op[5]),
			}
			l.Add(a)
			ref = append(ref, a)
			checkAgainstReference(t, l, ref)
			for _, v := range views {
				if v.v.Len() != v.n {
					t.Fatalf("view of %d answers reads Len %d", v.n, v.v.Len())
				}
				sameAnswers(t, "view", v.v.AppendTo(nil), ref[:v.n])
				lo := v.n / 3
				sameAnswers(t, "view slice", v.v.Slice(lo, v.n).AppendTo(nil), ref[lo:v.n])
			}
			if clone != nil {
				checkAgainstReference(t, clone, cloneRef)
			}
			if op[0]&0x40 != 0 {
				views = append(views, view{l.Prefix(), l.Len()})
				if len(views) > 4 {
					views = views[1:]
				}
			}
			if op[0]&0x80 != 0 {
				clone, cloneRef = l.Clone(), slices.Clone(ref)
			}
		}
	})
}
