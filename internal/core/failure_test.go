package core

// Failure-injection tests: adversarial and degenerate inputs the EM must
// survive without NaNs, panics or absurd output.

import (
	"math"
	"testing"

	"tcrowd/internal/metrics"
	"tcrowd/internal/simulate"
	"tcrowd/internal/stats"
	"tcrowd/internal/tabular"
)

func TestInferSurvivesAdversarialWorkers(t *testing.T) {
	// A quarter of the crowd answers systematically wrong: always a wrong
	// label, always truth + large constant offset. T-Crowd must still beat
	// chance and must rank the adversaries below the honest workers.
	ds := simulate.Generate(stats.NewRNG(2000), simulate.TableConfig{
		Rows: 40, Cols: 6, CatRatio: 0.5,
		Population: simulate.PopulationConfig{N: 20, SpammerFrac: 0},
	})
	crowd := simulate.NewCrowd(ds, 2001)
	log := crowd.FixedAssignment(4)

	// Replace the answers of 5 workers with adversarial ones.
	adversaries := map[tabular.WorkerID]bool{}
	for i := 0; i < 5; i++ {
		adversaries[ds.Workers[i].ID] = true
	}
	evil := tabular.NewAnswerLog()
	for _, a := range log.All() {
		if adversaries[a.Worker] {
			col := ds.Table.Schema.Columns[a.Cell.Col]
			truth := ds.Table.TruthAt(a.Cell)
			if col.Type == tabular.Categorical {
				wrong := (truth.L + 1) % col.NumLabels()
				a.Value = tabular.LabelValue(wrong)
			} else {
				a.Value = tabular.NumberValue(truth.X + (col.Max-col.Min)/3)
			}
		}
		evil.Add(a)
	}

	m, err := Infer(ds.Table, evil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := metrics.Evaluate(ds.Table, m.Estimates(), evil)
	if math.IsNaN(rep.ErrorRate) || rep.ErrorRate > 0.5 {
		t.Fatalf("error rate %v under adversaries", rep.ErrorRate)
	}
	// Honest workers should have smaller inferred variance than the
	// adversaries on average.
	var honest, adv []float64
	for k, u := range m.WorkerIDs {
		if adversaries[u] {
			adv = append(adv, math.Log(m.Phi[k]))
		} else {
			honest = append(honest, math.Log(m.Phi[k]))
		}
	}
	if stats.Mean(honest) >= stats.Mean(adv) {
		t.Fatalf("adversaries not detected: honest %v vs adversarial %v",
			stats.Mean(honest), stats.Mean(adv))
	}
}

func TestInferSingleWorker(t *testing.T) {
	// One worker answering everything: inference degenerates gracefully to
	// that worker's answers.
	ds := simulate.Generate(stats.NewRNG(2100), simulate.TableConfig{
		Rows: 10, Cols: 4, Population: simulate.PopulationConfig{N: 1},
	})
	crowd := simulate.NewCrowd(ds, 2101)
	log := crowd.FixedAssignment(1)
	m, err := Infer(ds.Table, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	est := m.Estimates()
	for _, a := range log.All() {
		got := est[a.Cell.Row][a.Cell.Col]
		if got.Kind == tabular.Label && got.L != a.Value.L {
			t.Fatal("single-worker categorical estimate should follow the only answer")
		}
	}
}

func TestInferDegenerateColumn(t *testing.T) {
	// A continuous column where everyone answers the same constant: zero
	// variance must not produce NaNs.
	s := tabular.Schema{
		Key: "id",
		Columns: []tabular.Column{
			{Name: "const", Type: tabular.Continuous, Min: 0, Max: 10},
			{Name: "cat", Type: tabular.Categorical, Labels: []string{"a", "b"}},
		},
	}
	tbl := tabular.NewTable(s, 3)
	log := tabular.NewAnswerLog()
	for i := 0; i < 3; i++ {
		for _, u := range []tabular.WorkerID{"u1", "u2", "u3"} {
			log.Add(tabular.Answer{Worker: u, Cell: tabular.Cell{Row: i, Col: 0}, Value: tabular.NumberValue(5)})
			log.Add(tabular.Answer{Worker: u, Cell: tabular.Cell{Row: i, Col: 1}, Value: tabular.LabelValue(i % 2)})
		}
	}
	m, err := Infer(tbl, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	est := m.Estimates()
	for i := 0; i < 3; i++ {
		if math.IsNaN(est[i][0].X) {
			t.Fatal("NaN estimate on degenerate column")
		}
		if math.Abs(est[i][0].X-5) > 1e-6 {
			t.Fatalf("constant column estimate %v", est[i][0].X)
		}
	}
	for _, phi := range m.Phi {
		if math.IsNaN(phi) || phi <= 0 {
			t.Fatalf("bad phi %v", phi)
		}
	}
}

func TestInferBinaryLabels(t *testing.T) {
	// |L| = 2 exercises the (|L|-1) = 1 denominators.
	s := tabular.Schema{
		Key:     "id",
		Columns: []tabular.Column{{Name: "flag", Type: tabular.Categorical, Labels: []string{"no", "yes"}}},
	}
	tbl := tabular.NewTable(s, 4)
	log := tabular.NewAnswerLog()
	for i := 0; i < 4; i++ {
		log.Add(tabular.Answer{Worker: "u1", Cell: tabular.Cell{Row: i, Col: 0}, Value: tabular.LabelValue(1)})
		log.Add(tabular.Answer{Worker: "u2", Cell: tabular.Cell{Row: i, Col: 0}, Value: tabular.LabelValue(1)})
		log.Add(tabular.Answer{Worker: "u3", Cell: tabular.Cell{Row: i, Col: 0}, Value: tabular.LabelValue(i % 2)})
	}
	m, err := Infer(tbl, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	est := m.Estimates()
	for i := 0; i < 4; i++ {
		if !est[i][0].Equal(tabular.LabelValue(1)) {
			t.Fatalf("row %d: majority should win, got %v", i, est[i][0])
		}
	}
}

func TestInferMissingCells(t *testing.T) {
	// Sparse coverage: most cells unanswered; estimates exist exactly for
	// answered cells.
	ds := simulate.Generate(stats.NewRNG(2200), simulate.TableConfig{Rows: 20, Cols: 5})
	crowd := simulate.NewCrowd(ds, 2201)
	log := tabular.NewAnswerLog()
	// Only the first three rows get answers.
	for i := 0; i < 3; i++ {
		for j := 0; j < 5; j++ {
			log.Add(crowd.Answer(&ds.Workers[0], tabular.Cell{Row: i, Col: j}))
			log.Add(crowd.Answer(&ds.Workers[1], tabular.Cell{Row: i, Col: j}))
		}
	}
	m, err := Infer(ds.Table, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	est := m.Estimates()
	for i := 0; i < 20; i++ {
		for j := 0; j < 5; j++ {
			answered := i < 3
			if answered == est[i][j].IsNone() {
				t.Fatalf("cell (%d,%d): answered=%v estimate=%v", i, j, answered, est[i][j])
			}
		}
	}
}

func TestWarmStartConsistency(t *testing.T) {
	// Warm-started EM must land at (essentially) the same fit as cold EM.
	ds, log := smallDataset(2300)
	cold, err := Infer(ds.Table, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The cold fit's budget, so only the seed differs.
	warm, err := InferWarm(cold, ds.Table, log, Options{MaxIter: cold.Opts.MaxIter})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Iterations > cold.Iterations {
		t.Fatalf("warm start took longer: %d vs %d", warm.Iterations, cold.Iterations)
	}
	ce, we := cold.Estimates(), warm.Estimates()
	diff := 0
	for i := 0; i < ds.Table.NumRows(); i++ {
		for j := 0; j < ds.Table.NumCols(); j++ {
			if ce[i][j].Kind == tabular.Label && ce[i][j].L != we[i][j].L {
				diff++
			}
		}
	}
	if diff > 2 {
		t.Fatalf("warm fit diverged on %d categorical cells", diff)
	}
}
