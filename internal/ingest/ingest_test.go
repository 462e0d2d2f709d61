package ingest

import (
	"math/rand"
	"slices"
	"testing"
)

// randomAnswers draws n random decoded answers over a rows x cols table.
// Few workers on small tables make repeated (cell, worker, label) answers,
// and so multi-answer groups, common.
func randomAnswers(rng *rand.Rand, rows, cols, workers, n int) []Answer {
	out := make([]Answer, n)
	for k := range out {
		a := Answer{
			W: rng.Intn(workers),
			I: rng.Intn(rows),
			J: rng.Intn(cols),
		}
		if a.J%2 == 0 {
			a.IsCat = true
			a.Label = rng.Intn(4)
		} else {
			a.X = rng.NormFloat64() * 10
		}
		out[k] = a
	}
	return out
}

// naiveGroups is the reference grouping: a stable sort of a copy of the
// log by (cell key, worker, label) and one fold per run, in log order.
func naiveGroups(all []Answer, cols int) []Group {
	ans := slices.Clone(all)
	slices.SortStableFunc(ans, func(a, b Answer) int {
		if ka, kb := a.I*cols+a.J, b.I*cols+b.J; ka != kb {
			return ka - kb
		}
		if a.W != b.W {
			return a.W - b.W
		}
		return a.Label - b.Label
	})
	var out []Group
	for lo := 0; lo < len(ans); {
		hi := lo + 1
		for hi < len(ans) && sameGroup(&ans[lo], &ans[hi]) {
			hi++
		}
		a := ans[lo]
		g := Group{W: int32(a.W), I: int32(a.I), J: int32(a.J), Label: int32(a.Label), IsCat: a.IsCat}
		for _, b := range ans[lo:hi] {
			g.Count++
			if !g.IsCat {
				d := b.X - g.Mean
				g.Mean += d / float64(g.Count)
				g.M2 += d * (b.X - g.Mean)
			}
		}
		out = append(out, g)
		lo = hi
	}
	return out
}

// checkInvariants asserts the CSR layout: offsets consistent, groups
// strictly sorted, each cell's run holding exactly its groups, and Len the
// total count.
func checkInvariants(t *testing.T, l *Log) {
	t.Helper()
	if int(l.GroupOff[0]) != 0 || int(l.GroupOff[len(l.GroupOff)-1]) != len(l.Groups) {
		t.Fatalf("CSR bounds broken: [%d, %d] over %d groups",
			l.GroupOff[0], l.GroupOff[len(l.GroupOff)-1], len(l.Groups))
	}
	total := 0
	for key := 0; key < l.Rows()*l.Cols(); key++ {
		lo, hi := l.GroupRange(key)
		if lo > hi {
			t.Fatalf("cell %d has negative run [%d, %d)", key, lo, hi)
		}
		for g := lo; g < hi; g++ {
			gr := &l.Groups[g]
			if got := l.Key(int(gr.I), int(gr.J)); got != key {
				t.Fatalf("group %d in run of cell %d belongs to cell %d", g, key, got)
			}
			total += int(gr.Count)
		}
	}
	for g := 1; g < len(l.Groups); g++ {
		prev := Answer{I: int(l.Groups[g-1].I), J: int(l.Groups[g-1].J), W: int(l.Groups[g-1].W), Label: int(l.Groups[g-1].Label)}
		if l.order(&l.Groups[g], &prev) <= 0 {
			t.Fatalf("groups out of order at %d", g)
		}
	}
	if total != l.Len() {
		t.Fatalf("Len %d, groups count %d answers", l.Len(), total)
	}
}

// TestAppendMatchesRebuild is the core streaming property: any batch split
// of an answer set, appended incrementally, yields BITWISE the groups a
// bulk Rebuild of the full set produces, and both equal the naive
// sort-and-fold grouping. Group moments fold each group's answers in log
// order however the batches split, which is what lets streamed refreshes
// match a rebuild bit for bit.
func TestAppendMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		rows, cols := 3+rng.Intn(8), 2+rng.Intn(5)
		all := randomAnswers(rng, rows, cols, 6, 40+rng.Intn(200))

		bulk := NewLog(rows, cols)
		bulk.Rebuild(slices.Clone(all))

		inc := NewLog(rows, cols)
		lo := 0
		for lo < len(all) {
			hi := lo + 1 + rng.Intn(30)
			if hi > len(all) {
				hi = len(all)
			}
			inc.Append(slices.Clone(all[lo:hi]))
			lo = hi
		}

		checkInvariants(t, inc)
		checkInvariants(t, bulk)
		if inc.Len() != len(all) || bulk.Len() != len(all) {
			t.Fatalf("trial %d: Len %d incremental, %d bulk, want %d", trial, inc.Len(), bulk.Len(), len(all))
		}
		want := naiveGroups(all, cols)
		for name, l := range map[string]*Log{"incremental": inc, "bulk": bulk} {
			if len(l.Groups) != len(want) {
				t.Fatalf("trial %d: %s has %d groups, want %d", trial, name, len(l.Groups), len(want))
			}
			for g := range want {
				if l.Groups[g] != want[g] {
					t.Fatalf("trial %d: %s group %d diverged: %+v vs %+v", trial, name, g, l.Groups[g], want[g])
				}
			}
		}
		if !slices.Equal(inc.GroupOff, bulk.GroupOff) {
			t.Fatalf("trial %d: GroupOff diverged", trial)
		}
	}
}

// TestOneAnswerGroupKeepsRawValue pins what the model's bitwise identity
// on served projects rests on: a group of one answer holds Mean = x and
// M2 = 0 exactly.
func TestOneAnswerGroupKeepsRawValue(t *testing.T) {
	l := NewLog(2, 2)
	xs := []float64{-3.7e99, -0.1, 0, 1.0 / 3, 123456.789, 1e100}
	for w, x := range xs {
		l.Append([]Answer{{W: w, I: 1, J: 1, X: x}})
	}
	for g, x := range xs {
		if gr := l.Groups[g]; gr.Count != 1 || gr.Mean != x || gr.M2 != 0 {
			t.Fatalf("group of %v holds %+v", x, gr)
		}
	}
}

// TestDirtyTracking pins the dirty set: exactly the cells of the appended
// batch, cleared by ClearDirty, re-markable after.
func TestDirtyTracking(t *testing.T) {
	l := NewLog(4, 3)
	l.Rebuild([]Answer{
		{W: 0, I: 0, J: 0, IsCat: true},
		{W: 1, I: 2, J: 1, X: 5},
	})
	if len(l.DirtyKeys()) != 0 {
		t.Fatalf("Rebuild left dirty cells: %v", l.DirtyKeys())
	}

	l.Append([]Answer{
		{W: 2, I: 0, J: 0, IsCat: true, Label: 1},
		{W: 2, I: 3, J: 2, X: 10},
		{W: 0, I: 3, J: 2, X: -10},
	})
	want := map[int]bool{l.Key(0, 0): true, l.Key(3, 2): true}
	got := l.DirtyKeys()
	if len(got) != len(want) {
		t.Fatalf("dirty keys %v, want cells %v", got, want)
	}
	for _, key := range got {
		if !want[key] {
			t.Fatalf("unexpected dirty key %d", key)
		}
	}

	l.ClearDirty()
	if len(l.DirtyKeys()) != 0 {
		t.Fatal("ClearDirty did not clear")
	}
	l.MarkDirty(l.Key(1, 1))
	l.MarkDirty(l.Key(1, 1))
	if n := len(l.DirtyKeys()); n != 1 {
		t.Fatalf("MarkDirty deduplication broken: %d keys", n)
	}
}

// TestAppendSteadyStateAllocs pins streaming appends at a small constant
// number of allocations once capacity headroom is grown — independent of
// the stored log's size.
func TestAppendSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	l := NewLog(50, 8)
	l.Rebuild(randomAnswers(rng, 50, 8, 10, 4000))
	batch := randomAnswers(rng, 50, 8, 10, 50)
	// Warm capacity headroom.
	l.Append(slices.Clone(batch))
	l.ClearDirty()

	avg := testing.AllocsPerRun(20, func() {
		l.Append(batch)
		l.ClearDirty()
	})
	// slices.SortFunc is allocation-free and the store grows with headroom;
	// the occasional capacity doubling amortises below a handful of allocs.
	if avg > 4 {
		t.Fatalf("streaming append allocates %.1f allocs/run in steady state", avg)
	}
}
