package platform

import (
	"errors"
	"math"
	"testing"

	"tcrowd/internal/core"
	"tcrowd/internal/simulate"
	"tcrowd/internal/stats"
	"tcrowd/internal/tabular"
)

// streamSchema is a small mixed schema for the streaming-inference tests.
func streamSchema() tabular.Schema {
	return tabular.Schema{
		Key: "restaurant",
		Columns: []tabular.Column{
			{Name: "cuisine", Type: tabular.Categorical, Labels: []string{"thai", "french", "diner"}},
			{Name: "price", Type: tabular.Continuous, Min: 0, Max: 100},
		},
	}
}

// TestRunInferenceStreamsDelta pins the platform's incremental path: after
// the first cold fit, repeated RunInference calls reuse and stream into the
// cached model instead of refitting, and reflect newly submitted answers.
func TestRunInferenceStreamsDelta(t *testing.T) {
	p := New(7)
	if _, err := p.CreateProject("r", streamSchema(), ProjectConfig{Rows: 4}); err != nil {
		t.Fatal(err)
	}
	submit := func(worker string, row int, col string, v tabular.Value) {
		t.Helper()
		if err := submitOne(p, "r", tabular.WorkerID(worker), row, col, v); err != nil {
			t.Fatal(err)
		}
	}
	for row := 0; row < 4; row++ {
		for _, w := range []string{"ann", "bob", "cho"} {
			submit(w, row, "cuisine", tabular.LabelValue(row%3))
			submit(w, row, "price", tabular.NumberValue(float64(10*row+5)))
		}
	}

	res1, err := p.RunInference("r")
	if err != nil {
		t.Fatal(err)
	}
	proj, _ := p.Project("r")
	m1 := proj.lastModel
	if m1 == nil {
		t.Fatal("no cached model after cold inference")
	}

	// New answers from a new worker: the next inference must stream them
	// into the same model, not rebuild.
	submit("dee", 0, "cuisine", tabular.LabelValue(1))
	submit("dee", 0, "price", tabular.NumberValue(95))
	res2, err := p.RunInference("r")
	if err != nil {
		t.Fatal(err)
	}
	if proj.lastModel != m1 {
		t.Fatal("incremental inference rebuilt the model")
	}
	if res2.AnswersSeen != proj.Log.Len() {
		t.Fatalf("model absorbed %d answers, log has %d", res2.AnswersSeen, proj.Log.Len())
	}
	if _, ok := res2.WorkerQuality["dee"]; !ok {
		t.Fatal("streamed worker missing from quality report")
	}
	if len(res2.Estimates) != len(res1.Estimates) {
		t.Fatalf("estimate table shape changed: %d vs %d rows", len(res2.Estimates), len(res1.Estimates))
	}

	// No new answers: the cached fit is served as is.
	if _, err := p.RunInference("r"); err != nil {
		t.Fatal(err)
	}
	if proj.lastModel != m1 {
		t.Fatal("idle inference rebuilt the model")
	}
}

// TestRefreshMatchesReplay pins that refreshes read the project's answer
// log exactly as a single-threaded replay does: after each of five rounds
// of SubmitBatch + RunInference, the published estimates and worker
// qualities equal, bit for bit, a cold core.Infer on the first batch
// followed by IngestFrom + RefreshIncremental for each later batch.
func TestRefreshMatchesReplay(t *testing.T) {
	ds := simulate.Generate(stats.NewRNG(61), simulate.TableConfig{Rows: 12, Cols: 4, CatRatio: 0.5,
		Population: simulate.PopulationConfig{N: 6}})
	crowd := simulate.NewCrowd(ds, 62)
	p := NewWithOptions(63, Options{Workers: 1})
	defer p.Close()
	proj, err := p.CreateProject("replay", ds.Table.Schema, ProjectConfig{
		Rows: ds.Table.NumRows(), RefreshEvery: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	replay := tabular.NewAnswerLog()
	var m *core.Model
	for round := 0; round < 5; round++ {
		var batch []tabular.Answer
		for wi := range ds.Workers {
			w := &ds.Workers[wi]
			for r := 0; r < 2; r++ {
				row := (wi + 2*round + r) % ds.Table.NumRows()
				for j := 0; j < ds.Table.NumCols(); j++ {
					cell := tabular.Cell{Row: row, Col: j}
					batch = append(batch, tabular.Answer{Worker: w.ID, Cell: cell, Value: crowd.AnswerValue(w, cell)})
				}
			}
		}
		if _, err := p.SubmitBatch("replay", batch); err != nil {
			t.Fatal(err)
		}
		res, err := p.RunInference("replay")
		if err != nil {
			t.Fatal(err)
		}

		replay.AddAll(batch)
		if m == nil {
			if m, err = core.Infer(proj.Table, replay, core.Options{MaxIter: emMaxIter}); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := m.IngestFrom(replay); err != nil {
				t.Fatal(err)
			}
			m.RefreshIncremental(emMaxIter)
		}

		if res.AnswersSeen != replay.Len() || proj.Log.Len() != replay.Len() {
			t.Fatalf("round %d: AnswersSeen %d, log %d, replay %d", round, res.AnswersSeen, proj.Log.Len(), replay.Len())
		}
		want := m.Estimates()
		for i := range want {
			for j, w := range want[i] {
				got := res.Estimates[i][j]
				if got.Kind != w.Kind || got.L != w.L || math.Float64bits(got.X) != math.Float64bits(w.X) {
					t.Fatalf("round %d cell (%d,%d): served %+v, replay %+v", round, i, j, got, w)
				}
			}
		}
		if len(res.WorkerQuality) != len(m.WorkerIDs) {
			t.Fatalf("round %d: %d worker qualities, replay has %d workers", round, len(res.WorkerQuality), len(m.WorkerIDs))
		}
		for _, u := range m.WorkerIDs {
			if got, w := res.WorkerQuality[u], m.WorkerQuality(u); math.Float64bits(got) != math.Float64bits(w) {
				t.Fatalf("round %d worker %s: served quality %v, replay %v", round, u, got, w)
			}
		}
	}
}

// TestUnusableLogThenBatchMatchesReplay covers a project whose log holds
// only an answer the model skips — a number beyond ±core.MaxAnswerMagnitude,
// which WAL replay of an answer acknowledged before the bound can put
// there: it has no fit, so RunInference answers core.ErrNoAnswers. Its
// model is kept, and once a valid batch lands the published estimates are
// bit-equal to a single-threaded Infer over the whole log.
func TestUnusableLogThenBatchMatchesReplay(t *testing.T) {
	ds := simulate.Generate(stats.NewRNG(71), simulate.TableConfig{Rows: 8, Cols: 4, CatRatio: 0.5,
		Population: simulate.PopulationConfig{N: 5}})
	crowd := simulate.NewCrowd(ds, 72)
	p := NewWithOptions(73, Options{Workers: 1})
	defer p.Close()
	proj, err := p.CreateProject("huge", ds.Table.Schema, ProjectConfig{
		Rows: ds.Table.NumRows(), RefreshEvery: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	col := -1
	for j, c := range ds.Table.Schema.Columns {
		if c.Type == tabular.Continuous {
			col = j
			break
		}
	}
	if col < 0 {
		t.Fatal("dataset has no continuous column")
	}
	huge := tabular.Answer{Worker: "w-huge", Cell: tabular.Cell{Row: 0, Col: col}, Value: tabular.NumberValue(2e154)}
	p.mu.Lock()
	proj.Log.Add(huge)
	p.mu.Unlock()
	if _, err := p.RunInference("huge"); !errors.Is(err, core.ErrNoAnswers) {
		t.Fatalf("RunInference over an unusable log = %v, want core.ErrNoAnswers", err)
	}

	var batch []tabular.Answer
	for wi := range ds.Workers {
		w := &ds.Workers[wi]
		for r := 0; r < 3; r++ {
			row := (wi + r) % ds.Table.NumRows()
			for j := 0; j < ds.Table.NumCols(); j++ {
				cell := tabular.Cell{Row: row, Col: j}
				batch = append(batch, tabular.Answer{Worker: w.ID, Cell: cell, Value: crowd.AnswerValue(w, cell)})
			}
		}
	}
	if _, err := p.SubmitBatch("huge", batch); err != nil {
		t.Fatal(err)
	}
	res, err := p.RunInference("huge")
	if err != nil {
		t.Fatal(err)
	}
	replay := tabular.NewAnswerLog()
	replay.Add(huge)
	replay.AddAll(batch)
	m, err := core.Infer(proj.Table, replay, core.Options{MaxIter: emMaxIter})
	if err != nil {
		t.Fatal(err)
	}
	if res.AnswersSeen != replay.Len() || res.Iterations != m.Iterations {
		t.Fatalf("AnswersSeen %d, iterations %d; replay %d answers, %d iterations",
			res.AnswersSeen, res.Iterations, replay.Len(), m.Iterations)
	}
	want := m.Estimates()
	for i := range want {
		for j, w := range want[i] {
			got := res.Estimates[i][j]
			if got.Kind != w.Kind || got.L != w.L || math.Float64bits(got.X) != math.Float64bits(w.X) {
				t.Fatalf("cell (%d,%d): served %+v, replay %+v", i, j, got, w)
			}
		}
	}
	for _, u := range m.WorkerIDs {
		if got, w := res.WorkerQuality[u], m.WorkerQuality(u); math.Float64bits(got) != math.Float64bits(w) {
			t.Fatalf("worker %s: served quality %v, replay %v", u, got, w)
		}
	}
}
