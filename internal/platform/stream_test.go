package platform

import (
	"testing"

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
		if err := p.Submit("r", tabular.WorkerID(worker), row, col, v); err != nil {
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
