package simulate

import (
	"math"
	"testing"

	"tcrowd/internal/stats"
	"tcrowd/internal/tabular"
)

func TestNewPopulationShape(t *testing.T) {
	rng := stats.NewRNG(1)
	ws := NewPopulation(rng, PopulationConfig{N: 200, SpammerFrac: 0.1})
	if len(ws) != 200 {
		t.Fatal("size")
	}
	ids := make(map[tabular.WorkerID]bool)
	spammers := 0
	for _, w := range ws {
		if ids[w.ID] {
			t.Fatalf("duplicate id %s", w.ID)
		}
		ids[w.ID] = true
		if w.Phi <= 0 {
			t.Fatal("non-positive phi")
		}
		if w.Phi == 60 {
			spammers++
		}
		if w.ConfusionProneness < 0 || w.ConfusionProneness > 1 {
			t.Fatal("proneness out of range")
		}
	}
	if spammers != 20 {
		t.Fatalf("want 20 spammers, got %d", spammers)
	}
	// Long tail: max phi should be far above the median.
	phis := make([]float64, len(ws))
	for i, w := range ws {
		phis[i] = w.Phi
	}
	if med := stats.Median(phis); med <= 0 {
		t.Fatal("median phi")
	}
}

func TestWorkerQualityMonotone(t *testing.T) {
	good := Worker{Phi: 0.05}
	bad := Worker{Phi: 5}
	if good.Quality(0.5) <= bad.Quality(0.5) {
		t.Fatal("lower variance must mean higher quality")
	}
	if q := good.Quality(0.5); q <= 0 || q >= 1 {
		t.Fatalf("quality out of (0,1): %v", q)
	}
}

func TestGenerateRespectsConfig(t *testing.T) {
	rng := stats.NewRNG(2)
	ds := Generate(rng, TableConfig{Rows: 40, Cols: 8, CatRatio: 0.25})
	tbl := ds.Table
	if tbl.NumRows() != 40 || tbl.NumCols() != 8 {
		t.Fatal("dimensions")
	}
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	nCat := 0
	for _, c := range tbl.Schema.Columns {
		if c.Type == tabular.Categorical {
			nCat++
			if len(c.Labels) < 2 || len(c.Labels) > 10 {
				t.Fatalf("label count %d outside U(2,10)", len(c.Labels))
			}
		}
	}
	if nCat != 2 {
		t.Fatalf("want 2 categorical columns, got %d", nCat)
	}
	if len(ds.Alpha) != 40 || len(ds.Beta) != 8 || len(ds.ContScale) != 8 {
		t.Fatal("difficulty/scale arity")
	}
	for j, c := range tbl.Schema.Columns {
		if c.Type == tabular.Continuous && ds.ContScale[j] <= 0 {
			t.Fatal("continuous column without scale")
		}
		if c.Type == tabular.Categorical && ds.ContScale[j] != 0 {
			t.Fatal("categorical column with scale")
		}
	}
}

func TestGenerateMeanDifficulty(t *testing.T) {
	rng := stats.NewRNG(3)
	for _, mu := range []float64{0.5, 1, 2, 3} {
		ds := Generate(rng, TableConfig{Rows: 50, Cols: 10, MeanDifficulty: mu})
		got := ds.MeanDifficulty()
		// mean(alpha)*mean(beta) = mu * 1; cross-products average to the
		// product of means exactly because difficulty draws are rescaled.
		if math.Abs(got-mu)/mu > 0.01 {
			t.Fatalf("mean difficulty %v want %v", got, mu)
		}
	}
}

func TestGenerateExtremeRatios(t *testing.T) {
	rng := stats.NewRNG(4)
	all := Generate(rng, TableConfig{Rows: 10, Cols: 6, CatRatio: 1})
	none := Generate(rng, TableConfig{Rows: 10, Cols: 6, CatRatio: -1})
	for _, tc := range []struct {
		ds   *Dataset
		want int
	}{{all, 6}, {none, 0}} {
		n := 0
		for _, c := range tc.ds.Table.Schema.Columns {
			if c.Type == tabular.Categorical {
				n++
			}
		}
		if n != tc.want {
			t.Fatalf("%d categorical columns of 6, want %d", n, tc.want)
		}
	}
}

func TestCrowdAnswerTypes(t *testing.T) {
	ds := Generate(stats.NewRNG(5), TableConfig{Rows: 10, Cols: 6})
	cr := NewCrowd(ds, 6)
	w := &ds.Workers[0]
	for j, col := range ds.Table.Schema.Columns {
		v := cr.AnswerValue(w, tabular.Cell{Row: 0, Col: j})
		if err := v.CheckAgainst(col); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCrowdQualityDrivesAccuracy(t *testing.T) {
	ds := Generate(stats.NewRNG(7), TableConfig{Rows: 60, Cols: 8, CatRatio: 0.5})
	// Disable row confusion so the comparison isolates phi.
	ds.RowConfusionBase = 0
	cr := NewCrowd(ds, 8)
	good := &Worker{ID: "good", Phi: 0.02}
	bad := &Worker{ID: "bad", Phi: 8}

	accuracy := func(w *Worker) (catAcc, contErr float64) {
		correct, total := 0, 0
		var errs []float64
		for i := 0; i < ds.Table.NumRows(); i++ {
			for j, col := range ds.Table.Schema.Columns {
				c := tabular.Cell{Row: i, Col: j}
				v := cr.AnswerValue(w, c)
				truth := ds.Table.TruthAt(c)
				if col.Type == tabular.Categorical {
					total++
					if v.Equal(truth) {
						correct++
					}
				} else {
					errs = append(errs, math.Abs(v.X-truth.X))
				}
			}
		}
		return float64(correct) / float64(total), stats.Mean(errs)
	}
	gAcc, gErr := accuracy(good)
	bAcc, bErr := accuracy(bad)
	if gAcc <= bAcc {
		t.Fatalf("good worker categorical accuracy %v <= bad %v", gAcc, bAcc)
	}
	if gErr >= bErr {
		t.Fatalf("good worker continuous error %v >= bad %v", gErr, bErr)
	}
}

func TestCrowdRowConfusionIsSticky(t *testing.T) {
	ds := Generate(stats.NewRNG(9), TableConfig{Rows: 5, Cols: 4})
	ds.RowConfusionBase = 0.5
	cr := NewCrowd(ds, 10)
	w := &ds.Workers[0]
	w.ConfusionProneness = 1
	// The coin is flipped once per (worker,row): the memo must hold a
	// stable value across repeated queries.
	first := cr.isConfused(w, 2)
	for k := 0; k < 20; k++ {
		if cr.isConfused(w, 2) != first {
			t.Fatal("confusion flip-flopped")
		}
	}
}

func TestFixedAssignmentMultiplicity(t *testing.T) {
	ds := Generate(stats.NewRNG(11), TableConfig{Rows: 12, Cols: 5})
	cr := NewCrowd(ds, 12)
	log := cr.FixedAssignment(4)
	if log.Len() != 12*5*4 {
		t.Fatalf("len=%d", log.Len())
	}
	for i := 0; i < 12; i++ {
		for j := 0; j < 5; j++ {
			c := tabular.Cell{Row: i, Col: j}
			got := log.ByCell(c)
			if len(got) != 4 {
				t.Fatalf("cell %v has %d answers", c, len(got))
			}
			seen := map[tabular.WorkerID]bool{}
			for _, a := range got {
				if seen[a.Worker] {
					t.Fatalf("worker %s answered %v twice", a.Worker, c)
				}
				seen[a.Worker] = true
			}
		}
	}
	if err := log.Validate(ds.Table); err != nil {
		t.Fatal(err)
	}
	// Row-HIT structure: a worker answering cell (i,0) answered all of row i.
	a0 := log.ByCell(tabular.Cell{Row: 3, Col: 0})
	for _, a := range a0 {
		if got := log.RowAnswersByWorker(a.Worker, 3); len(got) != 5 {
			t.Fatalf("worker %s answered %d cells of row 3", a.Worker, len(got))
		}
	}
}

func TestFixedAssignmentCapsAtPopulation(t *testing.T) {
	ds := Generate(stats.NewRNG(13), TableConfig{Rows: 3, Cols: 2, Population: PopulationConfig{N: 3}})
	cr := NewCrowd(ds, 14)
	log := cr.FixedAssignment(10)
	if log.Len() != 3*2*3 {
		t.Fatalf("len=%d want %d", log.Len(), 18)
	}
}

func TestArrivalOrderCoversPopulation(t *testing.T) {
	ds := Generate(stats.NewRNG(17), TableConfig{Rows: 4, Cols: 2, Population: PopulationConfig{N: 7}})
	cr := NewCrowd(ds, 18)
	order := cr.ArrivalOrder(25)
	if len(order) != 25 {
		t.Fatal("length")
	}
	// First 7 arrivals are a permutation: every worker appears once.
	seen := map[int]bool{}
	for _, idx := range order[:7] {
		if idx < 0 || idx >= 7 || seen[idx] {
			t.Fatal("first block is not a permutation")
		}
		seen[idx] = true
	}
}

func TestDatasetHelpers(t *testing.T) {
	ds := Celebrity(1)
	if ds.WorkerByID(ds.Workers[3].ID) != &ds.Workers[3] {
		t.Fatal("WorkerByID")
	}
	if ds.WorkerByID("nope") != nil {
		t.Fatal("phantom worker")
	}
	empty := &Dataset{}
	if empty.MeanDifficulty() != 0 {
		t.Fatal("empty difficulty")
	}
}
