package platform

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"tcrowd/api"
	"tcrowd/internal/shard"
	"tcrowd/internal/tabular"
)

// wedge occupies the scheduler shard owning key with a job that blocks
// until the returned release func is called (idempotent, so tests can both
// defer and call it), then fills the rest of the shard's queue with filler
// keys so further distinct-key submits are rejected. depth is the
// platform's QueueDepth.
func wedge(t *testing.T, p *Platform, key string, depth int) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	var once sync.Once
	sh := p.sched.ShardFor(key)
	if err := p.sched.Submit("wedge-blocker-"+pickKeyOnShard(t, p, sh, 0), func() error {
		<-gate
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Wait for the blocker to occupy the worker (its slot leaves the queue).
	waitFor(t, func() bool { return p.ShardMetrics()[sh].Depth == 0 })
	for i := 0; i < depth; i++ {
		k := pickKeyOnShard(t, p, sh, i+1)
		if err := p.sched.Submit("wedge-filler-"+k, func() error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	return func() { once.Do(func() { close(gate) }) }
}

// pickKeyOnShard probes for the (skip+1)-th suffix that lands on shard sh.
// The "wedge-blocker-"/"wedge-filler-" prefixes are part of the submitted
// key, so probe with them attached.
func pickKeyOnShard(t *testing.T, p *Platform, sh, skip int) string {
	t.Helper()
	found := 0
	for i := 0; i < 100000; i++ {
		k := fmt.Sprintf("probe-%d", i)
		if p.sched.ShardFor("wedge-blocker-"+k) == sh && p.sched.ShardFor("wedge-filler-"+k) == sh {
			if found == skip {
				return k
			}
			found++
		}
	}
	t.Fatalf("no key found on shard %d", sh)
	return ""
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// seedProject creates a project with a few answers and exactly one
// published snapshot, generation 1. RefreshEvery is 1 so every later
// submission exercises the refresh enqueue (the backpressure tests need
// each Submit to touch the queue). The answers go in as one batch: one
// refresh then covers all of them, where separate submits could let an
// async refresh publish a partial log before RunInference publishes again.
func seedProject(t *testing.T, p *Platform, id string) {
	t.Helper()
	if _, err := p.CreateProject(id, demoSchema(), ProjectConfig{Rows: 3, RefreshEvery: 1}); err != nil {
		t.Fatal(err)
	}
	var batch []tabular.Answer
	for _, w := range []tabular.WorkerID{"w1", "w2", "w3"} {
		batch = append(batch,
			tabular.Answer{Worker: w, Cell: tabular.Cell{Row: 0, Col: 0}, Value: tabular.LabelValue(1)},
			tabular.Answer{Worker: w, Cell: tabular.Cell{Row: 0, Col: 1}, Value: tabular.NumberValue(100)})
	}
	if _, err := p.SubmitBatch(id, batch); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunInference(id); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitPublishesSnapshotAsync pins the async serving loop: submissions
// alone (no RunInference call) eventually publish an estimate snapshot that
// reflects the whole log.
func TestSubmitPublishesSnapshotAsync(t *testing.T) {
	p := New(41)
	defer p.Close()
	if _, err := p.CreateProject("a", demoSchema(), ProjectConfig{Rows: 3, RefreshEvery: 1}); err != nil {
		t.Fatal(err)
	}
	for _, w := range []tabular.WorkerID{"w1", "w2", "w3"} {
		if err := p.Submit("a", w, 0, "category", tabular.LabelValue(2)); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := p.Stats("a")
	waitFor(t, func() bool {
		res, err := p.Snapshot("a")
		return err == nil && res.AnswersSeen == st.Answers
	})
	res, err := p.Snapshot("a")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Estimates[0][0].Equal(tabular.LabelValue(2)) {
		t.Fatalf("async snapshot estimate %v", res.Estimates[0][0])
	}
}

// TestSnapshotNeverBlocksOnSaturatedShard is the acceptance-criterion test
// for non-blocking reads: with the project's shard wedged (stuck worker,
// full queue), Snapshot still serves the last published estimates
// immediately, RunInference and Submit surface typed backpressure, and the
// recorded answer is not lost.
func TestSnapshotNeverBlocksOnSaturatedShard(t *testing.T) {
	p := NewWithOptions(42, Options{Workers: 1, QueueDepth: 1})
	defer p.Close()
	seedProject(t, p, "a")
	before, err := p.Snapshot("a")
	if err != nil {
		t.Fatal(err)
	}

	release := wedge(t, p, "a", 1)
	defer release()

	// Non-blocking read: returns the published snapshot promptly.
	got := make(chan *InferenceResult, 1)
	go func() {
		res, err := p.Snapshot("a")
		if err != nil {
			t.Error(err)
		}
		got <- res
	}()
	select {
	case res := <-got:
		if res != before {
			t.Fatal("snapshot changed while shard wedged")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Snapshot blocked on a saturated shard")
	}

	// Strongly consistent read: fails fast with the typed error.
	if _, err := p.RunInference("a"); !errors.Is(err, shard.ErrShardSaturated) {
		t.Fatalf("RunInference on saturated shard: %v", err)
	}

	// Submission: answer recorded, refresh shed, typed error returned.
	err = p.Submit("a", "w9", 1, "price", tabular.NumberValue(7))
	if !errors.Is(err, shard.ErrShardSaturated) {
		t.Fatalf("Submit on saturated shard: %v", err)
	}
	proj, _ := p.Project("a")
	if !proj.Log.HasAnswered("w9", tabular.Cell{Row: 1, Col: 1}) {
		t.Fatal("backpressured submission lost the answer")
	}

	// Released, the shard drains and consistent reads work again —
	// absorbing the answer whose refresh was shed.
	release()
	waitFor(t, func() bool {
		m := p.ShardMetrics()[0]
		return m.Depth == 0 && m.Completed == m.Enqueued
	})
	res, err := p.RunInference("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.WorkerQuality["w9"]; !ok {
		t.Fatal("post-release refresh missed the shed answer")
	}
}

// TestShardIsolationAcrossProjects is the acceptance-criterion isolation
// test at the platform layer: with one project's shard fully saturated,
// a project on another shard keeps refreshing.
func TestShardIsolationAcrossProjects(t *testing.T) {
	p := NewWithOptions(43, Options{Workers: 4, QueueDepth: 1})
	defer p.Close()

	// Find two project ids on distinct shards.
	hotID := "hot-project"
	coldID := ""
	for i := 0; i < 10000; i++ {
		id := fmt.Sprintf("cold-project-%d", i)
		if p.sched.ShardFor(id) != p.sched.ShardFor(hotID) {
			coldID = id
			break
		}
	}
	if coldID == "" {
		t.Fatal("no cold project id found")
	}
	seedProject(t, p, hotID)
	seedProject(t, p, coldID)

	release := wedge(t, p, hotID, 1)
	defer release()

	// Hot project's shard rejects new refresh work...
	if _, err := p.RunInference(hotID); !errors.Is(err, shard.ErrShardSaturated) {
		t.Fatalf("wedged shard accepted refresh: %v", err)
	}
	// ...while the cold project's refreshes proceed, promptly and with
	// fresh data.
	if err := p.Submit(coldID, "w8", 1, "price", tabular.NumberValue(55)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	var res *InferenceResult
	go func() {
		var err error
		res, err = p.RunInference(coldID)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cold project starved behind saturated hot shard")
	}
	if _, ok := res.WorkerQuality["w8"]; !ok {
		t.Fatal("cold refresh missing the new answer")
	}
}

// TestServerBackpressureAndSnapshot covers the HTTP layer end to end
// under a wedged shard: submissions record with an in-body deferred
// refresh, the ?min_generation= refresh path 429s, the default pinned
// read stays 200 (stale-marked), and /v1/stats reports the rejections.
func TestServerBackpressureAndSnapshot(t *testing.T) {
	p := NewWithOptions(44, Options{Workers: 1, QueueDepth: 1})
	defer p.Close()
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()
	seedProject(t, p, "celebs")

	release := wedge(t, p, "celebs", 1)
	defer release()

	// POST /v1/.../answers under saturation: 201, refresh deferred,
	// answer recorded.
	resp := postJSON(t, srv.URL+"/v1/projects/celebs/answers",
		`{"worker": "w7", "row": 2, "column": "price", "number": 12}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("saturated submit status %d", resp.StatusCode)
	}
	var submitBody api.SubmitAnswersResponse
	decodeBody(t, resp, &submitBody)
	if submitBody.Status != "recorded" || submitBody.Refresh != api.RefreshDeferred {
		t.Fatalf("saturated submit body %+v", submitBody)
	}
	proj, _ := p.Project("celebs")
	if !proj.Log.HasAnswered("w7", tabular.Cell{Row: 2, Col: 1}) {
		t.Fatal("backpressured submission lost the answer")
	}

	// The refresh-if-stale read needs the saturated shard: 429.
	resp, err := http.Get(srv.URL + "/v1/projects/celebs/estimates?min_generation=2000000000")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated min_generation estimates status %d", resp.StatusCode)
	}

	// The default pinned read never touches the queue: 200, marked stale.
	resp, err = http.Get(srv.URL + "/v1/projects/celebs/estimates")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pinned read status %d", resp.StatusCode)
	}
	var snap estimatesResp
	decodeBody(t, resp, &snap)
	if snap.Fresh {
		t.Fatal("pinned read claims freshness while a submission is unabsorbed")
	}
	if len(snap.Estimates) == 0 || snap.Generation == 0 {
		t.Fatalf("pinned read empty: %+v", snap)
	}

	// GET /v1/stats: shard metrics visible, rejections counted.
	resp, err = http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats shardStatsResp
	decodeBody(t, resp, &stats)
	if stats.Workers != 1 || len(stats.Shards) != 1 {
		t.Fatalf("stats shape: %+v", stats)
	}
	if stats.Totals.Rejected == 0 {
		t.Fatal("stats missing rejected count")
	}
	if stats.Totals.Depth == 0 {
		t.Fatal("stats missing queued depth")
	}

	// Drain; the strongly consistent read recovers and absorbs the shed
	// answer.
	release()
	waitFor(t, func() bool {
		m := p.ShardMetrics()[0]
		return m.Depth == 0 && m.Completed == m.Enqueued
	})
	resp, err = http.Get(srv.URL + "/v1/projects/celebs/estimates?min_generation=2000000000")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release estimates status %d", resp.StatusCode)
	}
	var est estimatesResp
	decodeBody(t, resp, &est)
	if !est.Fresh {
		t.Fatal("post-release estimates not fresh")
	}
	if _, ok := est.WorkerQuality["w7"]; !ok {
		t.Fatal("post-release estimates missed the shed answer")
	}
}

// TestRefreshCadenceGatesEnqueue pins the anti-waste rule: once a snapshot
// exists, submissions below the project's RefreshEvery cadence do NOT
// enqueue refresh work — write-heavy projects cost one refresh per cadence
// window, not one per answer — while the cadence-crossing submission does.
func TestRefreshCadenceGatesEnqueue(t *testing.T) {
	p := New(47)
	defer p.Close()
	if _, err := p.CreateProject("a", demoSchema(), ProjectConfig{Rows: 5, RefreshEvery: 4}); err != nil {
		t.Fatal(err)
	}
	submit := func(w string, row int) {
		t.Helper()
		if err := p.Submit("a", tabular.WorkerID(w), row, "price", tabular.NumberValue(9)); err != nil {
			t.Fatal(err)
		}
	}
	enqueued := func() uint64 {
		var n uint64
		for _, m := range p.ShardMetrics() {
			n += m.Enqueued + m.Coalesced
		}
		return n
	}
	// Bootstrap: no snapshot yet, so the first submissions enqueue (and
	// coalesce) until one is published.
	submit("w1", 0)
	waitFor(t, func() bool { _, err := p.Snapshot("a"); return err == nil })
	base := enqueued()
	// Mid-cadence submissions (2nd and 3rd of 4) must not touch the queue.
	submit("w2", 0)
	submit("w3", 0)
	if got := enqueued(); got != base {
		t.Fatalf("mid-cadence submissions enqueued refreshes: %d -> %d", base, got)
	}
	// The 4th submission crosses the cadence and refreshes.
	submit("w4", 0)
	if got := enqueued(); got != base+1 {
		t.Fatalf("cadence-crossing submission enqueued %d refreshes, want 1", got-base)
	}
	st, _ := p.Stats("a")
	waitFor(t, func() bool {
		res, err := p.Snapshot("a")
		return err == nil && res.AnswersSeen == st.Answers
	})
}

// TestShedRefreshRetriesNextSubmission pins the cadence-rewind rule: when
// the cadence-crossing enqueue is shed by a saturated shard, the very next
// accepted submission retries instead of waiting out a fresh RefreshEvery
// window (which would double the staleness bound — or make it unbounded if
// traffic stopped).
func TestShedRefreshRetriesNextSubmission(t *testing.T) {
	p := NewWithOptions(49, Options{Workers: 1, QueueDepth: 1})
	defer p.Close()
	if _, err := p.CreateProject("a", demoSchema(), ProjectConfig{Rows: 3, RefreshEvery: 2}); err != nil {
		t.Fatal(err)
	}
	submit := func(w string, row int) error {
		return p.Submit("a", tabular.WorkerID(w), row, "price", tabular.NumberValue(9))
	}
	drained := func() bool {
		m := p.ShardMetrics()[0]
		return m.Depth == 0 && m.Completed == m.Enqueued
	}
	// Bootstrap a snapshot and drain (s1 bootstraps, s2 crosses cadence 2).
	if err := submit("w1", 0); err != nil {
		t.Fatal(err)
	}
	if err := submit("w2", 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { _, err := p.Snapshot("a"); return err == nil })
	waitFor(t, drained)

	release := wedge(t, p, "a", 1)
	defer release()
	// s3 is mid-cadence: no enqueue attempted, so no error even wedged.
	if err := submit("w3", 0); err != nil {
		t.Fatal(err)
	}
	// s4 crosses the cadence; the enqueue is shed and the counter rewound.
	if err := submit("w1", 1); !errors.Is(err, shard.ErrShardSaturated) {
		t.Fatalf("cadence-crossing submit on wedged shard: %v", err)
	}
	release()
	waitFor(t, drained)
	// Because of the rewind, s5 retries immediately (without it, s5 would
	// be treated as mid-cadence and the shed answers would stay
	// unabsorbed until a full extra window).
	if err := submit("w2", 1); err != nil {
		t.Fatal(err)
	}
	st, _ := p.Stats("a")
	waitFor(t, func() bool {
		res, err := p.Snapshot("a")
		return err == nil && res.AnswersSeen == st.Answers
	})
}

// TestCreateProjectRefreshEveryOverHTTP pins the refresh_every passthrough
// of POST /projects. The body also carries polish_frac, a setting older
// clients still send: the server ignores it and creates the project.
func TestCreateProjectRefreshEveryOverHTTP(t *testing.T) {
	p := New(48)
	defer p.Close()
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()
	resp := postJSON(t, srv.URL+"/v1/projects", `{
	  "id": "fast", "rows": 2, "refresh_every": 1, "polish_frac": 0.25,
	  "schema": {"key": "item", "columns": [
	    {"name": "category", "type": "categorical", "labels": ["a", "b"]}]}}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	proj, err := p.Project("fast")
	if err != nil {
		t.Fatal(err)
	}
	if proj.refreshEvery != 1 {
		t.Fatalf("refresh_every not applied: %d", proj.refreshEvery)
	}
}

// TestSnapshotBeforeFirstRefresh pins the 404 path.
func TestSnapshotBeforeFirstRefresh(t *testing.T) {
	p := New(45)
	defer p.Close()
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()
	if _, err := p.CreateProject("empty", demoSchema(), ProjectConfig{Rows: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Snapshot("empty"); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("want ErrNoSnapshot, got %v", err)
	}
	resp, err := http.Get(srv.URL + "/v1/projects/empty/estimates")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pre-publish estimates status %d", resp.StatusCode)
	}
	if e := decodeEnvelope(t, resp); e.Code != api.CodeNoSnapshot {
		t.Fatalf("pre-publish estimates code %q, want %q", e.Code, api.CodeNoSnapshot)
	}
	if _, err := p.Snapshot("ghost"); !errors.Is(err, ErrNoProject) {
		t.Fatal("phantom snapshot")
	}
}

// TestCloseDrainsPlatform pins shutdown: queued refreshes complete before
// Close returns, and post-Close operations fail with shard.ErrClosed while
// snapshot reads keep serving.
func TestCloseDrainsPlatform(t *testing.T) {
	p := New(46)
	if _, err := p.CreateProject("a", demoSchema(), ProjectConfig{Rows: 2, RefreshEvery: 1}); err != nil {
		t.Fatal(err)
	}
	for _, w := range []tabular.WorkerID{"w1", "w2", "w3"} {
		if err := p.Submit("a", w, 0, "category", tabular.LabelValue(0)); err != nil {
			t.Fatal(err)
		}
	}
	p.Close() // must drain the queued refresh, publishing a snapshot
	res, err := p.Snapshot("a")
	if err != nil {
		t.Fatalf("snapshot after drain: %v", err)
	}
	st, _ := p.Stats("a")
	if res.AnswersSeen != st.Answers {
		t.Fatalf("drained refresh absorbed %d/%d answers", res.AnswersSeen, st.Answers)
	}
	if _, err := p.RunInference("a"); !errors.Is(err, shard.ErrClosed) {
		t.Fatalf("RunInference after Close: %v", err)
	}
	if err := p.Submit("a", "w4", 1, "price", tabular.NumberValue(3)); !errors.Is(err, shard.ErrClosed) {
		t.Fatalf("Submit after Close: %v", err)
	}
}
