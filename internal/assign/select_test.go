package assign

import (
	"math"
	"slices"
	"testing"

	"tcrowd/internal/core"
	"tcrowd/internal/simulate"
	"tcrowd/internal/stats"
	"tcrowd/internal/tabular"
)

// selectWorkload is a 100x6 mixed table whose last 10 rows have no
// answers (uniform-prior and N(0, 1) cells), answered 3 deep elsewhere,
// plus one worker who answered all of row 5 (a full row, answering one
// cell twice) and part of row 6.
func selectWorkload(t testing.TB, seed int64) (*simulate.Dataset, *simulate.Crowd, *tabular.AnswerLog) {
	t.Helper()
	ds := simulate.Generate(stats.NewRNG(seed), simulate.TableConfig{
		Rows: 100, Cols: 6, CatRatio: 0.5,
		Population: simulate.PopulationConfig{N: 30},
	})
	crowd := simulate.NewCrowd(ds, seed+1)
	log := tabular.NewAnswerLog()
	for _, a := range crowd.FixedAssignment(3).All() {
		if a.Cell.Row < 90 {
			log.Add(a)
		}
	}
	w := &ds.Workers[0]
	for _, c := range []tabular.Cell{{Row: 5, Col: 0}, {Row: 5, Col: 1}, {Row: 5, Col: 2},
		{Row: 5, Col: 3}, {Row: 5, Col: 4}, {Row: 5, Col: 5}, {Row: 5, Col: 2}, {Row: 6, Col: 1}, {Row: 6, Col: 4}} {
		log.Add(crowd.Answer(w, c))
	}
	return ds, crowd, log
}

// referenceSelect is StructureIG's selection by the per-cell reference
// scorer: StructInfoGain (InfoGain without an error model) over the
// worker's unanswered cells in row-major order, then topK.
func referenceSelect(st *State, log *tabular.AnswerLog, u tabular.WorkerID, k int) []tabular.Cell {
	cands := candidateCells(st.Model.Table, log, u)
	scores := make([]float64, len(cands))
	for i, c := range cands {
		scores[i] = StructInfoGain(st.Model, st.Err, st.Est, log, u, c)
	}
	return topK(cands, scores, k)
}

// checkSelectMatchesReference compares StructureIG's full ranking and a
// short HIT with the reference for every worker in log plus a newcomer.
func checkSelectMatchesReference(t *testing.T, label string, st *State, log *tabular.AnswerLog) {
	t.Helper()
	st.Log = log
	all := st.Model.Table.NumCells()
	for _, u := range append(log.Workers(), "newcomer") {
		want := referenceSelect(st, log, u, all)
		if got := (StructureIG{}).Select(st, u, all); !slices.Equal(got, want) {
			t.Fatalf("%s: worker %s: ranking %v, reference %v", label, u, got, want)
		}
		if got := (StructureIG{}).Select(st, u, 3); !slices.Equal(got, want[:3]) {
			t.Fatalf("%s: worker %s: k=3 selected %v, reference %v", label, u, got, want[:3])
		}
	}
}

// TestStructureSelectMatchesReference pins StructureIG's cached scoring to
// the per-cell reference, cell for cell and in order, on fitted states
// with and without an error model and on a hand-built state. The served
// log also holds answers newer than the fit, on cells it has no estimate
// for, as a published state sees them.
func TestStructureSelectMatchesReference(t *testing.T) {
	ds, crowd, log := selectWorkload(t, 61)
	m, err := core.Infer(ds.Table, log, core.Options{MaxIter: 10})
	if err != nil {
		t.Fatal(err)
	}
	est := m.Estimates()
	served := log.Clone()
	for _, c := range []tabular.Cell{{Row: 92, Col: 0}, {Row: 92, Col: 3}, {Row: 7, Col: 2}, {Row: 93, Col: 1}} {
		served.Add(crowd.Answer(&ds.Workers[1], c))
	}
	checkSelectMatchesReference(t, "structure", NewState(m, log.Prefix(), est, true), served)
	checkSelectMatchesReference(t, "inherent", NewState(m, log.Prefix(), est, false), served)
	checkSelectMatchesReference(t, "hand-built", &State{Model: m, Est: est, Err: BuildErrorModel(m)}, served)
}

// TestStructureSelectAfterStreamingRefresh reruns the equivalence check on
// a TCrowdSystem after a deferred-polish and after a polished streaming
// refresh: both change the model in place, so cached gain terms that were
// not refreshed would diverge from the reference.
func TestStructureSelectAfterStreamingRefresh(t *testing.T) {
	ds, crowd, log := selectWorkload(t, 71)
	sys := NewTCrowdSystem(1)
	if err := sys.Refresh(ds.Table, log); err != nil {
		t.Fatal(err)
	}
	m := sys.Model()
	checkSelectMatchesReference(t, "cold", sys.st, log)

	crowd.AppendBatch(log, 8)
	if err := sys.Refresh(ds.Table, log); err != nil {
		t.Fatal(err)
	}
	if sys.Model() != m || m.Iterations != 0 {
		t.Fatalf("precondition: want a deferred-polish streaming refresh (iterations %d)", m.Iterations)
	}
	checkSelectMatchesReference(t, "deferred", sys.st, log)

	crowd.AppendBatch(log, 200)
	if err := sys.Refresh(ds.Table, log); err != nil {
		t.Fatal(err)
	}
	if sys.Model() != m || m.Iterations == 0 {
		t.Fatal("precondition: want a polished streaming refresh")
	}
	checkSelectMatchesReference(t, "polished", sys.st, log)
}

// TestCellTermsMatchCatInfoGain pins the cached categorical terms to
// catInfoGain bit for bit, answered and prior cells alike.
func TestCellTermsMatchCatInfoGain(t *testing.T) {
	ds, _, log := selectWorkload(t, 81)
	m, err := core.Infer(ds.Table, log, core.Options{MaxIter: 10})
	if err != nil {
		t.Fatal(err)
	}
	terms := newCellTerms(m)
	for _, c := range ds.Table.Cells() {
		post, ok := m.PosteriorCat(c)
		if !ok {
			continue
		}
		ct := terms.cell[c.Row*ds.Table.NumCols()+c.Col]
		for _, q := range []float64{0, 0.2, 0.5, 0.77, 0.999, 1} {
			if got, want := terms.catGain(ct, q), catInfoGain(post, q); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%v q=%v: cached %v, reference %v", c, q, got, want)
			}
		}
	}
}

// TestStructureSelectAllocs pins one served selection's allocations to a
// constant independent of the table size.
func TestStructureSelectAllocs(t *testing.T) {
	var allocs []float64
	for _, rows := range []int{20, 200} {
		ds := simulate.Generate(stats.NewRNG(91), simulate.TableConfig{
			Rows: rows, Cols: 6, CatRatio: 0.5,
			Population: simulate.PopulationConfig{N: 20},
		})
		log := simulate.NewCrowd(ds, 92).FixedAssignment(3)
		m, err := core.Infer(ds.Table, log, core.Options{MaxIter: 5})
		if err != nil {
			t.Fatal(err)
		}
		st := NewState(m, log.Prefix(), m.Estimates(), true)
		u := log.Workers()[0]
		mine := log.ByWorker(u)
		allocs = append(allocs, testing.AllocsPerRun(20, func() {
			StructureIG{}.SelectAnswers(st, u, mine, 8)
		}))
	}
	// The answered bitmap, the row-error index and vectors, the scored
	// candidates and the result.
	if allocs[0] != allocs[1] || allocs[1] > 5 {
		t.Fatalf("allocs per selection = %v on 20 and 200 rows, want one constant <= 5", allocs)
	}
}

// TestRowConditioningIsDeterministic repeats every conditioning of a
// fitted error model on a full row of errors and compares bits: sums run
// in column order, not map order.
func TestRowConditioningIsDeterministic(t *testing.T) {
	ds, _, log := selectWorkload(t, 101)
	m, err := core.Infer(ds.Table, log, core.Options{MaxIter: 10})
	if err != nil {
		t.Fatal(err)
	}
	em := NewErrorModel(m)
	em.Rebuild(log.Prefix(), m.Estimates())
	nCols := ds.Table.NumCols()
	for j := 0; j < nCols; j++ {
		rowErrs := map[int]float64{}
		for k := 0; k < nCols; k++ {
			if k == j {
				continue
			}
			if ds.Table.Schema.Columns[k].Type == tabular.Categorical {
				rowErrs[k] = float64(k % 2)
			} else {
				rowErrs[k] = 0.3*float64(k) - 0.7
			}
		}
		var first [2]uint64
		for rep := 0; rep < 50; rep++ {
			var got [2]uint64
			if ds.Table.Schema.Columns[j].Type == tabular.Categorical {
				p, ok := em.CondWrongProb(j, rowErrs)
				if !ok {
					t.Fatalf("column %d: no conditional", j)
				}
				got[0] = math.Float64bits(p)
			} else {
				n, ok := em.CondErrorNormal(j, rowErrs)
				if !ok {
					t.Fatalf("column %d: no conditional", j)
				}
				got = [2]uint64{math.Float64bits(n.Mu), math.Float64bits(n.Var)}
			}
			if rep == 0 {
				first = got
			} else if got != first {
				t.Fatalf("column %d: repeat %d returned different bits", j, rep)
			}
		}
	}
}
