package platform

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"tcrowd/internal/tabular"
)

// TestConcurrentWorkers hammers one project from many goroutines — the
// platform's advertised thread-safety. Run with -race to make it bite.
// The tcrowd case refreshes on every submission, so cold fits, streamed
// refreshes, trust weights and task-state builds read the answer log
// while the workers append to it.
func TestConcurrentWorkers(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  ProjectConfig
	}{
		{"default", ProjectConfig{Rows: 30}},
		{"tcrowd", ProjectConfig{Rows: 30, RefreshEvery: 1, UseTCrowdAssignment: true, Reputation: true}},
	} {
		t.Run(tc.name, func(t *testing.T) { testConcurrentWorkers(t, tc.cfg) })
	}
}

func testConcurrentWorkers(t *testing.T, cfg ProjectConfig) {
	p := New(55)
	defer p.Close()
	if _, err := p.CreateProject("conc", demoSchema(), cfg); err != nil {
		t.Fatal(err)
	}
	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers*20)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := tabular.WorkerID(fmt.Sprintf("w%02d", w))
			for round := 0; round < 5; round++ {
				tasks, err := p.RequestTasks("conc", id, 2)
				if err != nil {
					errs <- err
					return
				}
				for _, task := range tasks {
					var v tabular.Value
					if task.Type == "categorical" {
						v = tabular.LabelValue(w % 3)
					} else {
						v = tabular.NumberValue(float64(10*w + round))
					}
					if err := submitOne(p, "conc", id, task.Row, task.Column, v); err != nil && !errors.Is(err, ErrAlreadyAnswered) {
						errs <- err
						return
					}
				}
				if _, err := p.Stats("conc"); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st, err := p.Stats("conc")
	if err != nil {
		t.Fatal(err)
	}
	if st.Answers == 0 || st.Workers != workers {
		t.Fatalf("stats after concurrent load: %+v", st)
	}
	// Inference still works on the concurrently built log and covers it.
	res, err := p.RunInference("conc")
	if err != nil {
		t.Fatal(err)
	}
	if res.AnswersSeen != st.Answers {
		t.Fatalf("inference saw %d answers, log holds %d", res.AnswersSeen, st.Answers)
	}
}
