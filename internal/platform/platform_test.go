package platform

import (
	"errors"
	"testing"

	"tcrowd/internal/simulate"
	"tcrowd/internal/stats"
	"tcrowd/internal/tabular"
)

func demoSchema() tabular.Schema {
	return tabular.Schema{
		Key: "item",
		Columns: []tabular.Column{
			{Name: "category", Type: tabular.Categorical, Labels: []string{"book", "movie", "game"}},
			{Name: "price", Type: tabular.Continuous, Min: 0, Max: 500},
		},
	}
}

// submitOne records one answer, addressed by column name, through
// SubmitBatch. It returns the batch's error, or the shard error behind a
// shed refresh.
func submitOne(p *Platform, project string, u tabular.WorkerID, row int, column string, v tabular.Value) error {
	proj, err := p.Project(project)
	if err != nil {
		return err
	}
	a := tabular.Answer{Worker: u, Cell: tabular.Cell{Row: row, Col: proj.Table.Schema.ColumnIndex(column)}, Value: v}
	res, err := p.SubmitBatch(project, []tabular.Answer{a})
	if err != nil {
		return err
	}
	return res.RefreshErr
}

func TestCreateProjectValidation(t *testing.T) {
	p := New(1)
	if _, err := p.CreateProject("a", demoSchema(), ProjectConfig{Rows: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CreateProject("a", demoSchema(), ProjectConfig{Rows: 3}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate accepted: %v", err)
	}
	if _, err := p.CreateProject("b", demoSchema(), ProjectConfig{Rows: 0}); err == nil {
		t.Fatal("zero rows accepted")
	}
	if _, err := p.CreateProject("c", tabular.Schema{}, ProjectConfig{Rows: 1}); err == nil {
		t.Fatal("invalid schema accepted")
	}
	if _, err := p.CreateProject("d", demoSchema(), ProjectConfig{Rows: 2, Entities: []string{"only-one"}}); err == nil {
		t.Fatal("entity mismatch accepted")
	}
	if ids := p.ProjectIDs(); len(ids) != 1 || ids[0] != "a" {
		t.Fatalf("ProjectIDs: %v", ids)
	}
	if _, err := p.Project("missing"); !errors.Is(err, ErrNoProject) {
		t.Fatal("phantom project")
	}
}

func TestRequestTasksDefaultPolicy(t *testing.T) {
	p := New(2)
	if _, err := p.CreateProject("a", demoSchema(), ProjectConfig{Rows: 4}); err != nil {
		t.Fatal(err)
	}
	tasks, err := p.RequestTasks("a", "w1", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 3 {
		t.Fatalf("got %d tasks", len(tasks))
	}
	for _, task := range tasks {
		if task.Column != "category" && task.Column != "price" {
			t.Fatalf("unknown column %q", task.Column)
		}
		if task.Type == "categorical" && len(task.Labels) == 0 {
			t.Fatal("categorical task without labels")
		}
		if task.Entity == "" {
			t.Fatal("task without entity")
		}
	}
	// Default k = number of columns.
	tasks, err = p.RequestTasks("a", "w2", 0)
	if err != nil || len(tasks) != 2 {
		t.Fatalf("default k: %d %v", len(tasks), err)
	}
	if _, err := p.RequestTasks("nope", "w", 1); !errors.Is(err, ErrNoProject) {
		t.Fatal("phantom project tasks")
	}
}

func TestFewestAnswersFirstBalances(t *testing.T) {
	p := New(3)
	if _, err := p.CreateProject("a", demoSchema(), ProjectConfig{Rows: 3}); err != nil {
		t.Fatal(err)
	}
	// w1 answers cell (0, category); the next worker should be steered to
	// less-covered cells first.
	if err := submitOne(p, "a", "w1", 0, "category", tabular.LabelValue(0)); err != nil {
		t.Fatal(err)
	}
	tasks, err := p.RequestTasks("a", "w2", 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range tasks {
		if task.Row == 0 && task.Column == "category" {
			t.Fatal("answered cell assigned before empty cells")
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	p := New(4)
	if _, err := p.CreateProject("a", demoSchema(), ProjectConfig{Rows: 2}); err != nil {
		t.Fatal(err)
	}
	ok := submitOne(p, "a", "w1", 0, "price", tabular.NumberValue(42))
	if ok != nil {
		t.Fatal(ok)
	}
	if err := submitOne(p, "a", "w1", 0, "price", tabular.NumberValue(43)); !errors.Is(err, ErrAlreadyAnswered) {
		t.Fatal("double answer accepted")
	}
	if err := submitOne(p, "a", "w1", 0, "zzz", tabular.NumberValue(1)); err == nil {
		t.Fatal("unknown column accepted")
	}
	if err := submitOne(p, "a", "w1", 99, "price", tabular.NumberValue(1)); err == nil {
		t.Fatal("bad row accepted")
	}
	if err := submitOne(p, "a", "w1", 0, "category", tabular.NumberValue(1)); err == nil {
		t.Fatal("mistyped value accepted")
	}
	if err := submitOne(p, "a", "", 1, "price", tabular.NumberValue(1)); err == nil {
		t.Fatal("empty worker accepted")
	}
	if err := submitOne(p, "zzz", "w", 0, "price", tabular.NumberValue(1)); !errors.Is(err, ErrNoProject) {
		t.Fatal("phantom project accepted")
	}
	st, err := p.Stats("a")
	if err != nil || st.Answers != 1 || st.Workers != 1 || st.Cells != 4 {
		t.Fatalf("stats: %+v %v", st, err)
	}
}

func TestEndToEndInference(t *testing.T) {
	p := New(5)
	if _, err := p.CreateProject("a", demoSchema(), ProjectConfig{Rows: 3}); err != nil {
		t.Fatal(err)
	}
	// Three workers agree that row 0 is a movie priced ~100.
	for _, w := range []tabular.WorkerID{"w1", "w2", "w3"} {
		if err := submitOne(p, "a", w, 0, "category", tabular.LabelValue(1)); err != nil {
			t.Fatal(err)
		}
	}
	for i, x := range []float64{99, 100, 101} {
		w := tabular.WorkerID([]string{"w1", "w2", "w3"}[i])
		if err := submitOne(p, "a", w, 0, "price", tabular.NumberValue(x)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := p.RunInference("a")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Estimates[0][0].Equal(tabular.LabelValue(1)) {
		t.Fatalf("category estimate %v", res.Estimates[0][0])
	}
	price := res.Estimates[0][1].X
	if price < 95 || price > 105 {
		t.Fatalf("price estimate %v", price)
	}
	for _, q := range res.WorkerQuality {
		if q <= 0 || q > 1 {
			t.Fatalf("quality %v", q)
		}
	}
	if _, err := p.RunInference("ghost"); !errors.Is(err, ErrNoProject) {
		t.Fatal("phantom inference")
	}
}

func TestTCrowdAssignmentEngine(t *testing.T) {
	p := New(6)
	if _, err := p.CreateProject("a", demoSchema(), ProjectConfig{Rows: 4, UseTCrowdAssignment: true, RefreshEvery: 2}); err != nil {
		t.Fatal(err)
	}
	// Cold start: engine has no answers, falls back to fewest-answers.
	tasks, err := p.RequestTasks("a", "w1", 2)
	if err != nil || len(tasks) != 2 {
		t.Fatalf("cold start: %v %v", tasks, err)
	}
	for _, task := range tasks {
		j := 0
		if task.Column == "price" {
			j = 1
		}
		var v tabular.Value
		if j == 0 {
			v = tabular.LabelValue(0)
		} else {
			v = tabular.NumberValue(50)
		}
		if err := submitOne(p, "a", "w1", task.Row, task.Column, v); err != nil {
			t.Fatal(err)
		}
	}
	// Warm path: engine refreshes and selects by information gain.
	tasks, err = p.RequestTasks("a", "w2", 3)
	if err != nil || len(tasks) == 0 {
		t.Fatalf("warm start: %v %v", tasks, err)
	}
}

func TestPlatformWithSimulatedCrowd(t *testing.T) {
	// Full integration: simulated workers pull tasks from the platform,
	// answer from the generative model, and inference recovers the truth
	// better than chance.
	ds := simulate.Generate(stats.NewRNG(31), simulate.TableConfig{Rows: 12, Cols: 4, CatRatio: 0.5,
		Population: simulate.PopulationConfig{N: 15}})
	crowd := simulate.NewCrowd(ds, 32)

	p := New(33)
	if _, err := p.CreateProject("sim", ds.Table.Schema, ProjectConfig{Rows: ds.Table.NumRows()}); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		for wi := range ds.Workers {
			w := &ds.Workers[wi]
			tasks, err := p.RequestTasks("sim", w.ID, 4)
			if err != nil {
				t.Fatal(err)
			}
			for _, task := range tasks {
				j := ds.Table.Schema.ColumnIndex(task.Column)
				v := crowd.AnswerValue(w, tabular.Cell{Row: task.Row, Col: j})
				if err := submitOne(p, "sim", w.ID, task.Row, task.Column, v); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	res, err := p.RunInference("sim")
	if err != nil {
		t.Fatal(err)
	}
	correct, total := 0, 0
	for i := 0; i < ds.Table.NumRows(); i++ {
		for j, col := range ds.Table.Schema.Columns {
			if col.Type != tabular.Categorical {
				continue
			}
			if res.Estimates[i][j].IsNone() {
				continue
			}
			total++
			if res.Estimates[i][j].Equal(ds.Table.Truth[i][j]) {
				correct++
			}
		}
	}
	if total == 0 || float64(correct)/float64(total) < 0.7 {
		t.Fatalf("platform pipeline recovered %d/%d categorical truths", correct, total)
	}
}
