package platform

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"

	"tcrowd/internal/assign"
	"tcrowd/internal/core"
	"tcrowd/internal/reputation"
	"tcrowd/internal/simulate"
	"tcrowd/internal/stats"
	"tcrowd/internal/tabular"
)

// taskCells maps served tasks back to cells for comparison with a
// reference selection.
func taskCells(t *testing.T, proj *Project, tasks []Task) []tabular.Cell {
	t.Helper()
	out := make([]tabular.Cell, len(tasks))
	for i, task := range tasks {
		j := proj.Table.Schema.ColumnIndex(task.Column)
		if j < 0 {
			t.Fatalf("task names unknown column %q", task.Column)
		}
		out[i] = tabular.Cell{Row: task.Row, Col: j}
	}
	return out
}

// referenceSelect runs assign.StructureIG over a state built directly from
// a fitted model and the full answer log.
func referenceSelect(m *core.Model, log *tabular.AnswerLog, u tabular.WorkerID, k int) []tabular.Cell {
	st := assign.NewState(m, log.All(), m.Estimates(), true)
	st.Log = log
	return assign.StructureIG{}.Select(st, u, k)
}

// TestServedSelectionMatchesPublishedModel pins that GET /tasks scores the
// one model the project publishes: after streamed refreshes, the served
// cells equal assign.StructureIG's selection on a state built from the
// project's estimate model — same cells, same order — for workers with
// and without history.
func TestServedSelectionMatchesPublishedModel(t *testing.T) {
	ds := simulate.Generate(stats.NewRNG(41), simulate.TableConfig{Rows: 10, Cols: 4, CatRatio: 0.5,
		Population: simulate.PopulationConfig{N: 8}})
	crowd := simulate.NewCrowd(ds, 42)
	p := NewWithOptions(43, Options{Workers: 1})
	defer p.Close()
	if _, err := p.CreateProject("sel", ds.Table.Schema, ProjectConfig{
		Rows: ds.Table.NumRows(), UseTCrowdAssignment: true, RefreshEvery: 5,
	}); err != nil {
		t.Fatal(err)
	}
	// Rounds of batches, so the model is a cold fit plus streamed refreshes.
	for round := 0; round < 3; round++ {
		for wi := range ds.Workers {
			w := &ds.Workers[wi]
			var batch []tabular.Answer
			for c := 0; c < 3; c++ {
				cell := tabular.Cell{Row: (wi + 3*round + c) % ds.Table.NumRows(), Col: (wi + c + round) % ds.Table.NumCols()}
				batch = append(batch, tabular.Answer{Worker: w.ID, Cell: cell, Value: crowd.AnswerValue(w, cell)})
			}
			if _, err := p.SubmitBatch("sel", batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := p.RunInference("sel"); err != nil {
		t.Fatal(err)
	}
	proj, err := p.Project("sel")
	if err != nil {
		t.Fatal(err)
	}
	proj.inferMu.Lock()
	m := proj.lastModel
	proj.inferMu.Unlock()
	if ts := proj.tasks.Load(); ts == nil || ts.answersSeen != proj.Log.Len() {
		t.Fatal("no published assignment state covering the log")
	}

	workers := []tabular.WorkerID{ds.Workers[0].ID, ds.Workers[3].ID, "newcomer"}
	for _, u := range workers {
		for _, k := range []int{1, 3, 7} {
			tasks, err := p.RequestTasks("sel", u, k)
			if err != nil {
				t.Fatal(err)
			}
			got := taskCells(t, proj, tasks)
			want := referenceSelect(m, proj.Log, u, k)
			if len(want) == 0 || !slices.Equal(got, want) {
				t.Fatalf("worker %s k=%d: served %v, reference %v", u, k, got, want)
			}
		}
	}
}

// TestQuarantinedAnswersDoNotSteerAssignment pins the reputation fix: a
// quarantined spammer's answers reach task selection only at their
// reputation weight. The case is chosen so that those answers at full
// weight would change an honest newcomer's cells; the served cells match
// the reference fitted with the reputation weights.
func TestQuarantinedAnswersDoNotSteerAssignment(t *testing.T) {
	const rows, clean = 18, 4
	// Rows 0..17: three honest workers agree, one spammer disagrees fast
	// (enough to quarantine it). Rows 18..21: the honest workers alone.
	answers, metas := spamStream(rows, 3, 1)
	for r := rows; r < rows+clean; r++ {
		for h := 1; h <= 3; h++ {
			answers = append(answers, tabular.Answer{
				Worker: tabular.WorkerID(fmt.Sprintf("h%d", h)),
				Cell:   tabular.Cell{Row: r, Col: 0},
				Value:  tabular.LabelValue(r % 3),
			})
			metas = append(metas, honestMeta())
		}
	}
	p := NewWithOptions(1, Options{Workers: 1})
	defer p.Close()
	proj, err := p.CreateProject("rep", spamSchema(), ProjectConfig{
		Rows: rows + clean, RefreshEvery: 1 << 30, Reputation: true, UseTCrowdAssignment: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Hold the shard so the batch's refresh runs only after the weights
	// it will fit with have been read here.
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release()
	if err := p.sched.Submit("blocker", func() error { <-gate; return nil }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return p.ShardMetrics()[0].Depth == 0 })
	if _, err := p.SubmitBatchMeta("rep", answers, metas); err != nil {
		t.Fatal(err)
	}
	if st := proj.rep.State("s1"); st != reputation.Quarantined {
		t.Fatalf("spammer state = %v, want Quarantined", st)
	}
	weights := proj.rep.Weights()
	release()
	if _, err := p.RunInference("rep"); err != nil {
		t.Fatal(err)
	}

	log := tabular.NewAnswerLog()
	log.AddAll(answers)
	fit := func(w map[tabular.WorkerID]float64) *core.Model {
		m, err := core.Infer(proj.Table, log, core.Options{MaxIter: 50, WorkerWeights: w})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	const u, k = tabular.WorkerID("h9"), 4
	weighted := referenceSelect(fit(weights), log, u, k)
	fullWeight := referenceSelect(fit(nil), log, u, k)
	if slices.Equal(weighted, fullWeight) {
		t.Fatalf("precondition: full-weight spam answers leave the selection unchanged (%v)", weighted)
	}
	tasks, err := p.RequestTasks("rep", u, k)
	if err != nil {
		t.Fatal(err)
	}
	if got := taskCells(t, proj, tasks); !slices.Equal(got, weighted) {
		t.Fatalf("served %v; reputation-weighted reference %v (full-weight %v)", got, weighted, fullWeight)
	}
}

// TestConcurrentTasksAgainstPublishes runs closed-loop workers — request
// tasks, answer them — next to read-only requesters, on a project that
// publishes a new generation (and assignment state) per answer, so task
// selection keeps overlapping the refreshes that grow the model's log.
// Under -race it proves that nothing reachable from the published state
// reads a log another goroutine appends to.
func TestConcurrentTasksAgainstPublishes(t *testing.T) {
	p := NewWithOptions(44, Options{Workers: 2})
	defer p.Close()
	const rows, workers, rounds = 30, 4, 15
	if _, err := p.CreateProject("race", demoSchema(), ProjectConfig{
		Rows: rows, UseTCrowdAssignment: true, RefreshEvery: 1,
	}); err != nil {
		t.Fatal(err)
	}
	var answering, reading sync.WaitGroup
	errs := make(chan error, 2*workers)
	for w := 0; w < workers; w++ {
		answering.Add(1)
		go func(w int) {
			defer answering.Done()
			id := tabular.WorkerID(fmt.Sprintf("w%d", w))
			for round := 0; round < rounds; round++ {
				tasks, err := p.RequestTasks("race", id, 2)
				if err != nil {
					errs <- err
					return
				}
				for _, task := range tasks {
					v := tabular.NumberValue(float64(10*task.Row + w))
					if task.Type == "categorical" {
						v = tabular.LabelValue((task.Row + w) % 3)
					}
					if err := p.Submit("race", id, task.Row, task.Column, v); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	done := make(chan struct{})
	for q := 0; q < workers; q++ {
		reading.Add(1)
		go func(q int) {
			defer reading.Done()
			// Read-only requesters ask for answering workers, whose answers
			// change under them, and for a newcomer.
			ids := []tabular.WorkerID{tabular.WorkerID(fmt.Sprintf("w%d", q)), "newcomer"}
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if _, err := p.RequestTasks("race", ids[i%len(ids)], 3); err != nil {
					errs <- err
					return
				}
			}
		}(q)
	}
	answering.Wait()
	if _, err := p.RunInference("race"); err != nil {
		t.Fatal(err)
	}
	close(done)
	reading.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	proj, err := p.Project("race")
	if err != nil {
		t.Fatal(err)
	}
	if ts := proj.tasks.Load(); ts == nil || ts.answersSeen != proj.Log.Len() {
		t.Fatal("final assignment state does not cover the log")
	}
}

// TestFewestAnswersFirstMatchesSort pins the partial selection that runs
// outside the platform lock to the full sort it replaced: the same cells
// in the same order for every k, ties on the answer count included.
func TestFewestAnswersFirstMatchesSort(t *testing.T) {
	rng := stats.NewRNG(5)
	cands := make([]countedCell, 60)
	for i := range cands {
		cands[i] = countedCell{c: tabular.Cell{Row: i / 6, Col: i % 6}, n: rng.Intn(4), r: rng.Float64()}
	}
	sorted := slices.Clone(cands)
	sort.Slice(sorted, func(a, b int) bool {
		if sorted[a].n != sorted[b].n {
			return sorted[a].n < sorted[b].n
		}
		return sorted[a].r < sorted[b].r
	})
	for k := 0; k <= len(cands)+1; k++ {
		want := make([]tabular.Cell, 0, k)
		for _, c := range sorted[:min(k, len(sorted))] {
			want = append(want, c.c)
		}
		if got := fewestAnswersFirst(slices.Clone(cands), k); !slices.Equal(got, want) {
			t.Fatalf("k=%d: selected %v, sorted %v", k, got, want)
		}
	}
}
