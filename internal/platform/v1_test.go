package platform

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tcrowd/api"
	"tcrowd/client"
	"tcrowd/internal/shard"
	"tcrowd/internal/tabular"
)

// TestErrorCodeTable pins the exhaustive sentinel → (HTTP status, code,
// retryable) mapping: every platform/shard sentinel resolves to exactly
// one triple, wrapped or not, and the published ErrorCodes table lists
// each code exactly once.
func TestErrorCodeTable(t *testing.T) {
	cases := []struct {
		err       error
		status    int
		code      string
		retryable bool
	}{
		{ErrNoProject, http.StatusNotFound, api.CodeNoProject, false},
		{ErrNoSnapshot, http.StatusNotFound, api.CodeNoSnapshot, true},
		{ErrGenerationGone, http.StatusGone, api.CodeGenerationGone, false},
		{ErrDuplicateID, http.StatusConflict, api.CodeDuplicateProject, false},
		{ErrAlreadyAnswered, http.StatusConflict, api.CodeAlreadyAnswered, false},
		{ErrDurability, http.StatusServiceUnavailable, api.CodeDurabilityFailure, true},
		{ErrWorkerBanned, http.StatusForbidden, api.CodeWorkerBanned, false},
		{ErrRateLimited, http.StatusTooManyRequests, api.CodeRateLimited, true},
		{ErrNotHome, http.StatusMisdirectedRequest, api.CodeNotHome, false},
		{ErrReplicaStale, http.StatusServiceUnavailable, api.CodeReplicaStale, true},
		{shard.ErrShardSaturated, http.StatusTooManyRequests, api.CodeShardSaturated, true},
		{shard.ErrClosed, http.StatusServiceUnavailable, api.CodeShuttingDown, true},
		{shard.ErrJobPanicked, http.StatusInternalServerError, api.CodeInternal, false},
	}
	if len(cases) != len(errTable) {
		t.Fatalf("sentinel table has %d rows, test covers %d — keep them in sync", len(errTable), len(cases))
	}
	for _, c := range cases {
		for _, err := range []error{c.err, fmt.Errorf("wrapped: %w", c.err)} {
			spec := classifyErr(err)
			if spec.status != c.status || spec.code != c.code || spec.retryable != c.retryable {
				t.Errorf("classify(%v) = (%d, %s, %v), want (%d, %s, %v)",
					err, spec.status, spec.code, spec.retryable, c.status, c.code, c.retryable)
			}
		}
	}
	// Unknown errors fall back to bad_request.
	if spec := classifyErr(errors.New("anything else")); spec.status != http.StatusBadRequest || spec.code != api.CodeBadRequest {
		t.Errorf("fallback spec: %+v", spec)
	}
	// The published table lists every code exactly once.
	seen := map[string]int{}
	for _, ec := range ErrorCodes() {
		seen[ec.Code]++
	}
	for _, c := range cases {
		if seen[c.code] != 1 {
			t.Errorf("code %s appears %d times in ErrorCodes", c.code, seen[c.code])
		}
	}
	for _, extra := range []string{api.CodeBadRequest, api.CodeBatchRejected} {
		if seen[extra] != 1 {
			t.Errorf("code %s appears %d times in ErrorCodes", extra, seen[extra])
		}
	}
}

// TestNotHomeEnvelope pins the cluster-routing error contract: a
// *NotHomeError renders as 421 not_home with the home node's base URL in
// the envelope's Home field (what the SDK follows), wrapped or not.
func TestNotHomeEnvelope(t *testing.T) {
	for _, err := range []error{
		&NotHomeError{Project: "p1", Home: "http://peer-2:8080"},
		fmt.Errorf("edge: %w", &NotHomeError{Project: "p1", Home: "http://peer-2:8080"}),
	} {
		rec := httptest.NewRecorder()
		writeErr(rec, err)
		if rec.Code != http.StatusMisdirectedRequest {
			t.Fatalf("status %d, want 421", rec.Code)
		}
		var env api.ErrorEnvelope
		if derr := json.NewDecoder(rec.Body).Decode(&env); derr != nil {
			t.Fatal(derr)
		}
		if env.Err.Code != api.CodeNotHome || env.Err.Retryable {
			t.Fatalf("envelope %+v, want not_home non-retryable", env.Err)
		}
		if env.Err.Home != "http://peer-2:8080" {
			t.Fatalf("envelope Home %q, want the home base URL", env.Err.Home)
		}
	}
	// A bare sentinel (no concrete NotHomeError) must not invent a Home.
	rec := httptest.NewRecorder()
	writeErr(rec, ErrReplicaStale)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("replica_stale status %d, want 503", rec.Code)
	}
	var env api.ErrorEnvelope
	if err := json.NewDecoder(rec.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Err.Code != api.CodeReplicaStale || !env.Err.Retryable || env.Err.Home != "" {
		t.Fatalf("envelope %+v, want retryable replica_stale without Home", env.Err)
	}
}

// decodeEnvelope reads a typed error envelope off a response.
func decodeEnvelope(t *testing.T, resp *http.Response) api.Error {
	t.Helper()
	defer resp.Body.Close()
	var env api.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decoding envelope: %v", err)
	}
	return env.Err
}

// TestTasksCountParsing pins the strconv fix: trailing garbage and
// negative counts are rejected with a typed bad_request instead of
// silently accepted (fmt.Sscanf "%d" stopped at the first non-digit).
func TestTasksCountParsing(t *testing.T) {
	srv, _ := newTestServer(t)
	postJSON(t, srv.URL+"/v1/projects", projectBody).Body.Close()

	for _, bad := range []string{"5x", "-1", "1.5", "0x10"} {
		resp, err := http.Get(srv.URL + "/v1/projects/celebs/tasks?worker=w1&count=" + bad)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("count=%q status %d", bad, resp.StatusCode)
		}
		if e := decodeEnvelope(t, resp); e.Code != api.CodeBadRequest {
			t.Fatalf("count=%q code %q", bad, e.Code)
		}
	}
	resp, err := http.Get(srv.URL + "/v1/projects/celebs/tasks?worker=w1&count=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid count status %d", resp.StatusCode)
	}
}

// TestV1BatchSingleRefresh is the acceptance-criterion batch test: a
// 200-answer batch POST records every answer and enqueues AT MOST ONE
// coalesced shard refresh (asserted via shard metrics), even at the
// every-answer refresh cadence where 200 single submissions would have
// touched the queue 200 times.
func TestV1BatchSingleRefresh(t *testing.T) {
	p := NewWithOptions(61, Options{Workers: 1, QueueDepth: 64})
	defer p.Close()
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()
	seedProject(t, p, "big") // RefreshEvery: 1
	waitFor(t, func() bool {
		m := p.ShardMetrics()[0]
		return m.Depth == 0 && m.Completed == m.Enqueued
	})
	before := p.ShardMetrics()[0]

	var sb strings.Builder
	sb.WriteString(`{"answers":[`)
	for i := 0; i < 200; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"worker":"bw%03d","row":1,"column":"price","number":%d}`, i, 50+i%7)
	}
	sb.WriteString(`]}`)
	resp := postJSON(t, srv.URL+"/v1/projects/big/answers", sb.String())
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var out api.SubmitAnswersResponse
	decodeBody(t, resp, &out)
	if out.Recorded != 200 || out.Status != "recorded" || out.Refresh != api.RefreshEnqueued {
		t.Fatalf("batch response: %+v", out)
	}
	after := p.ShardMetrics()[0]
	if touched := (after.Enqueued + after.Coalesced) - (before.Enqueued + before.Coalesced); touched > 1 {
		t.Fatalf("200-answer batch touched the queue %d times, want <= 1", touched)
	}
	st, _ := p.Stats("big")
	proj, _ := p.Project("big")
	for _, w := range []string{"bw000", "bw123", "bw199"} {
		if !proj.Log.HasAnswered(tabular.WorkerID(w), tabular.Cell{Row: 1, Col: 1}) {
			t.Fatalf("batch lost answer from %s", w)
		}
	}
	// The single coalesced refresh absorbs the whole batch.
	waitFor(t, func() bool {
		res, err := p.Snapshot("big")
		return err == nil && res.AnswersSeen == st.Answers
	})
}

// TestV1BatchAtomicUnderWedge: an accepted batch whose refresh is shed by
// a saturated shard still records everything, answers 201 (v1 has no
// per-answer 429) and reports refresh:"deferred" with a Retry-After hint.
func TestV1BatchDeferredRefreshUnderWedge(t *testing.T) {
	p := NewWithOptions(62, Options{Workers: 1, QueueDepth: 1})
	defer p.Close()
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()
	seedProject(t, p, "a")

	release := wedge(t, p, "a", 1)
	defer release()

	resp := postJSON(t, srv.URL+"/v1/projects/a/answers",
		`{"answers":[{"worker":"w7","row":2,"column":"price","number":12},
		             {"worker":"w8","row":2,"column":"price","number":13}]}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("wedged batch status %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("deferred refresh without Retry-After hint")
	}
	var out api.SubmitAnswersResponse
	decodeBody(t, resp, &out)
	if out.Recorded != 2 || out.Refresh != api.RefreshDeferred {
		t.Fatalf("wedged batch response: %+v", out)
	}
	proj, _ := p.Project("a")
	if !proj.Log.HasAnswered("w7", tabular.Cell{Row: 2, Col: 1}) ||
		!proj.Log.HasAnswered("w8", tabular.Cell{Row: 2, Col: 1}) {
		t.Fatal("deferred batch lost answers")
	}
}

// TestSubmitBatchRejectsAtomically pins platform-level batch atomicity:
// one invalid row rejects the whole batch with per-item detail and
// records nothing.
func TestSubmitBatchRejectsAtomically(t *testing.T) {
	p := New(63)
	defer p.Close()
	if _, err := p.CreateProject("a", demoSchema(), ProjectConfig{Rows: 3}); err != nil {
		t.Fatal(err)
	}
	answers := []tabular.Answer{
		{Worker: "w1", Cell: tabular.Cell{Row: 0, Col: 1}, Value: tabular.NumberValue(9)},
		{Worker: "w1", Cell: tabular.Cell{Row: 9, Col: 1}, Value: tabular.NumberValue(9)}, // bad row
		{Worker: "w1", Cell: tabular.Cell{Row: 0, Col: 1}, Value: tabular.NumberValue(9)}, // intra-batch dup
	}
	_, err := p.SubmitBatch("a", answers)
	var be *BatchError
	if !errors.As(err, &be) || len(be.Items) != 2 {
		t.Fatalf("batch error: %v", err)
	}
	if be.Items[0].Index != 1 || be.Items[1].Index != 2 {
		t.Fatalf("batch item indexes: %+v", be.Items)
	}
	if !errors.Is(be.Items[1].Err, ErrAlreadyAnswered) {
		t.Fatalf("intra-batch dup error: %v", be.Items[1].Err)
	}
	st, _ := p.Stats("a")
	if st.Answers != 0 {
		t.Fatalf("rejected batch recorded %d answers", st.Answers)
	}
}

// TestV1EstimatesPagination walks ?cursor=&limit= pages over HTTP and
// checks the concatenation equals the unpaginated read, with every page
// pinned to the same generation by the cursor.
func TestV1EstimatesPagination(t *testing.T) {
	p := New(64)
	defer p.Close()
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()
	if _, err := p.CreateProject("a", demoSchema(), ProjectConfig{Rows: 4}); err != nil {
		t.Fatal(err)
	}
	for _, w := range []tabular.WorkerID{"w1", "w2", "w3"} {
		for row := 0; row < 4; row++ {
			if err := p.Submit("a", w, row, "category", tabular.LabelValue(row%3)); err != nil {
				t.Fatal(err)
			}
			if err := p.Submit("a", w, row, "price", tabular.NumberValue(float64(10*row+1))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := p.RunInference("a"); err != nil { // publish a full-log generation
		t.Fatal(err)
	}
	var raw []byte // the last body get read
	get := func(q string) estimatesResp {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/projects/a/estimates" + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("estimates%s status %d", q, resp.StatusCode)
		}
		if raw, err = io.ReadAll(resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.ContentLength != int64(len(raw)) {
			t.Fatalf("estimates%s Content-Length %d, body %d bytes", q, resp.ContentLength, len(raw))
		}
		var est estimatesResp
		if err := json.Unmarshal(raw, &est); err != nil {
			t.Fatal(err)
		}
		return est
	}
	full := get("")
	if len(full.Estimates) != 8 || full.NextCursor != "" || full.Generation == 0 {
		t.Fatalf("full read: %d estimates, next %q, generation %d",
			len(full.Estimates), full.NextCursor, full.Generation)
	}
	var walked []estimateJSON
	cursor, pages := "", 0
	for {
		q := "?limit=3"
		if cursor != "" {
			q += "&cursor=" + cursor
		}
		page := get(q)
		walked = append(walked, page.Estimates...)
		// Worker-level fields ride on the first page of a walk only.
		if cursor == "" && len(page.WorkerQuality) != 3 {
			t.Fatalf("first page missing worker quality: %+v", page.WorkerQuality)
		}
		if cursor != "" && bytes.Contains(raw, []byte(`"worker_quality"`)) {
			t.Fatalf("cursor page carries worker_quality: %s", raw)
		}
		if page.Generation != full.Generation {
			t.Fatalf("page generation %d, walk pinned to %d", page.Generation, full.Generation)
		}
		pages++
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if pages < 3 {
		t.Fatalf("walk took %d pages, want >= 3", pages)
	}
	if len(walked) != len(full.Estimates) {
		t.Fatalf("paged walk got %d estimates, full read %d", len(walked), len(full.Estimates))
	}
	for i := range walked {
		if walked[i].Entity != full.Estimates[i].Entity || walked[i].Column != full.Estimates[i].Column {
			t.Fatalf("walk diverged at %d: %+v vs %+v", i, walked[i], full.Estimates[i])
		}
	}
	// The SDK's walk keeps the first page's worker map.
	all, err := client.New(srv.URL).AllEstimates(context.Background(), "a", 3, client.EstimatesQuery{})
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Estimates) != len(full.Estimates) || !maps.Equal(all.WorkerQuality, full.WorkerQuality) {
		t.Fatalf("AllEstimates: %d estimates, workers %v; full read %d, %v",
			len(all.Estimates), all.WorkerQuality, len(full.Estimates), full.WorkerQuality)
	}
	// Cursor past the end: empty page, no next.
	if tail := get(fmt.Sprintf("?cursor=%d:9999", full.Generation)); len(tail.Estimates) != 0 || tail.NextCursor != "" {
		t.Fatalf("past-the-end page: %+v", tail)
	}
	// Malformed cursors and conflicting pins are typed bad requests.
	for _, bad := range []string{"?cursor=9999", "?cursor=x:1", "?cursor=1:x", "?cursor=-1:0", "?cursor=%2B1:0", "?cursor=1:01",
		fmt.Sprintf("?cursor=%d:0&generation=%d", full.Generation, full.Generation+1)} {
		resp, err := http.Get(srv.URL + "/v1/projects/a/estimates" + bad)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("cursor %q status %d", bad, resp.StatusCode)
		}
		if e := decodeEnvelope(t, resp); e.Code != api.CodeBadRequest {
			t.Fatalf("cursor %q code %q", bad, e.Code)
		}
	}
}

// TestTasksNotBlockedByWedgedShard is the acceptance-criterion assignment
// test: with one T-Crowd project's shard fully wedged, GET /tasks for a
// project on another shard answers promptly, and the wedged project
// itself degrades to serving tasks from its stale assignment state
// instead of hanging or failing (before this PR the refresh ran under the
// platform lock on the request goroutine, stalling every project).
func TestTasksNotBlockedByWedgedShard(t *testing.T) {
	p := NewWithOptions(65, Options{Workers: 4, QueueDepth: 1})
	defer p.Close()
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()

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
	for _, id := range []string{hotID, coldID} {
		if _, err := p.CreateProject(id, demoSchema(), ProjectConfig{Rows: 3, UseTCrowdAssignment: true, RefreshEvery: 1}); err != nil {
			t.Fatal(err)
		}
		for _, w := range []tabular.WorkerID{"w1", "w2", "w3"} {
			if err := p.Submit(id, w, 0, "category", tabular.LabelValue(1)); err != nil {
				t.Fatal(err)
			}
		}
		// Prime the assignment engine so the wedged project has stale
		// state to degrade to.
		if _, err := p.RequestTasks(id, "seed-worker", 1); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool {
		for _, m := range p.ShardMetrics() {
			if m.Depth != 0 || m.Completed != m.Enqueued {
				return false
			}
		}
		return true
	})

	release := wedge(t, p, hotID, 1)
	defer release()

	fetch := func(id string) chan error {
		done := make(chan error, 1)
		go func() {
			resp, err := http.Get(srv.URL + "/v1/projects/" + id + "/tasks?worker=w9&count=2")
			if err != nil {
				done <- err
				return
			}
			defer resp.Body.Close()
			var tasks []Task
			if err := json.NewDecoder(resp.Body).Decode(&tasks); err != nil {
				done <- err
				return
			}
			if resp.StatusCode != http.StatusOK || len(tasks) == 0 {
				done <- fmt.Errorf("%s tasks: status %d, %d tasks", id, resp.StatusCode, len(tasks))
				return
			}
			done <- nil
		}()
		return done
	}

	// Both the cold project AND the wedged project answer promptly: the
	// cold one refreshes on its own shard, the hot one sheds the refresh
	// and serves from stale assignment state.
	for _, id := range []string{coldID, hotID} {
		select {
		case err := <-fetch(id):
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("GET /tasks for %s blocked behind the wedged shard", id)
		}
	}
}

// TestAssignRefreshRunsOnShardWorker pins the routing: a T-Crowd task
// request at a refresh-cadence boundary, whose assignment state does not
// cover the log yet, waits on the project's estimate refresh job — it
// coalesces into the refresh the submissions queued on the home shard
// instead of enqueuing a job of its own — and selects from the state that
// refresh published.
func TestAssignRefreshRunsOnShardWorker(t *testing.T) {
	p := NewWithOptions(66, Options{Workers: 1})
	defer p.Close()
	if _, err := p.CreateProject("a", demoSchema(), ProjectConfig{Rows: 3, UseTCrowdAssignment: true, RefreshEvery: 1}); err != nil {
		t.Fatal(err)
	}
	// Hold the only shard worker so the submissions' refresh stays queued.
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release()
	if err := p.sched.Submit("blocker", func() error { <-gate; return nil }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return p.ShardMetrics()[0].Depth == 0 })
	for _, w := range []tabular.WorkerID{"w1", "w2", "w3"} {
		if err := p.Submit("a", w, 0, "category", tabular.LabelValue(1)); err != nil {
			t.Fatal(err)
		}
	}
	before := p.ShardMetrics()[0]

	type result struct {
		tasks []Task
		err   error
	}
	got := make(chan result, 1)
	go func() {
		tasks, err := p.RequestTasks("a", "w9", 2)
		got <- result{tasks, err}
	}()
	waitFor(t, func() bool { return p.ShardMetrics()[0].Coalesced > before.Coalesced })
	if m := p.ShardMetrics()[0]; m.Enqueued != before.Enqueued {
		t.Fatalf("task request enqueued %d job(s) of its own instead of waiting on the estimate refresh",
			m.Enqueued-before.Enqueued)
	}
	release()
	var r result
	select {
	case r = <-got:
	case <-time.After(assignRefreshWait + 5*time.Second):
		t.Fatal("task request never returned")
	}
	if r.err != nil || len(r.tasks) == 0 {
		t.Fatalf("tasks = %v, %v", r.tasks, r.err)
	}
	proj, err := p.Project("a")
	if err != nil {
		t.Fatal(err)
	}
	if ts := proj.tasks.Load(); ts == nil || ts.answersSeen != 3 {
		t.Fatalf("assignment state after the wait: %+v, want one covering 3 answers", ts)
	}
	// The blocker and the one estimate refresh: no job ran for assignment.
	if after := p.ShardMetrics()[0]; after.Completed != before.Completed+2 || after.Enqueued != before.Enqueued {
		t.Fatalf("shard ran %d job(s) (%d enqueued) after the request; want the blocker and one estimate refresh",
			after.Completed-before.Completed, after.Enqueued-before.Enqueued)
	}
}

// TestLegacyRoutesRemoved pins the removal of the pre-v1 unversioned
// aliases (deprecated one release ago): they are no longer registered and
// 404 at the mux.
func TestLegacyRoutesRemoved(t *testing.T) {
	srv, _ := newTestServer(t)
	postJSON(t, srv.URL+"/v1/projects", projectBody).Body.Close()
	for _, path := range []string{"/projects", "/projects/celebs/tasks?worker=w1",
		"/projects/celebs/estimates", "/projects/celebs/snapshot",
		"/projects/celebs/stats", "/stats"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("legacy %s still served: status %d", path, resp.StatusCode)
		}
	}
	resp := postJSON(t, srv.URL+"/projects/celebs/answers",
		`{"worker":"w1","row":0,"column":"Age","number":30}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("legacy POST /answers still served: status %d", resp.StatusCode)
	}
	// The route table carries only /v1 patterns.
	for _, r := range Routes() {
		if !strings.HasPrefix(r.Pattern, "/v1/") {
			t.Fatalf("non-/v1 route in table: %s %s", r.Method, r.Pattern)
		}
	}
}

// TestSnapshotAliasDeprecated pins the /snapshot alias: it serves the
// /estimates response byte for byte, plus Deprecation: true and a Link to
// its successor route, and /estimates carries neither header.
func TestSnapshotAliasDeprecated(t *testing.T) {
	p := New(68)
	defer p.Close()
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()
	if _, err := p.CreateProject("a", demoSchema(), ProjectConfig{Rows: 2}); err != nil {
		t.Fatal(err)
	}
	for _, w := range []tabular.WorkerID{"w1", "w2"} {
		if err := p.Submit("a", w, 0, "category", tabular.LabelValue(1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.RunInference("a"); err != nil {
		t.Fatal(err)
	}
	get := func(route string) (http.Header, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/projects/a/" + route)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d: %s", route, resp.StatusCode, body)
		}
		return resp.Header, body
	}
	estH, estBody := get("estimates")
	snapH, snapBody := get("snapshot")
	if !bytes.Equal(snapBody, estBody) || snapH.Get("ETag") != estH.Get("ETag") {
		t.Fatalf("/snapshot served %s (ETag %s), /estimates %s (ETag %s)",
			snapBody, snapH.Get("ETag"), estBody, estH.Get("ETag"))
	}
	if got := snapH.Get("Deprecation"); got != "true" {
		t.Fatalf("/snapshot Deprecation = %q, want true", got)
	}
	if got, want := snapH.Get("Link"), `</v1/projects/a/estimates>; rel="successor-version"`; got != want {
		t.Fatalf("/snapshot Link = %q, want %q", got, want)
	}
	if estH.Get("Deprecation") != "" || estH.Get("Link") != "" {
		t.Fatalf("/estimates carries deprecation headers: %v", estH)
	}
}

// TestTasksBoundedWaitBehindBusyShard pins the bounded-wait rule: a task
// request whose assign refresh is queued behind other (slow) work on a
// busy-but-NOT-saturated shard stops waiting after assignRefreshWait and
// serves from the previous assignment state instead of stalling until the
// backlog drains (backpressure only trips on a full queue, so without the
// bound the request would block unboundedly).
func TestTasksBoundedWaitBehindBusyShard(t *testing.T) {
	p := NewWithOptions(67, Options{Workers: 1, QueueDepth: 64})
	defer p.Close()
	if _, err := p.CreateProject("a", demoSchema(), ProjectConfig{Rows: 3, UseTCrowdAssignment: true, RefreshEvery: 1}); err != nil {
		t.Fatal(err)
	}
	for _, w := range []tabular.WorkerID{"w1", "w2", "w3"} {
		if err := p.Submit("a", w, 0, "category", tabular.LabelValue(1)); err != nil {
			t.Fatal(err)
		}
	}
	// Prime the engine, then occupy the worker with a slow job. The queue
	// (depth 64) stays far from full: no backpressure, only backlog.
	if _, err := p.RequestTasks("a", "seed", 1); err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	defer close(gate)
	if err := p.sched.Submit("blocker", func() error { <-gate; return nil }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return p.ShardMetrics()[0].Depth == 0 }) // blocker occupies the worker
	// Make the engine stale so the task request actually enqueues a
	// refresh (an up-to-date engine skips the shard round trip entirely).
	if err := p.Submit("a", "w4", 1, "price", tabular.NumberValue(8)); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	tasks, err := p.RequestTasks("a", "w9", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) == 0 {
		t.Fatal("no tasks served from stale state")
	}
	if elapsed := time.Since(start); elapsed > assignRefreshWait+5*time.Second {
		t.Fatalf("task request stalled %v behind the busy shard", elapsed)
	}
}

// TestProjectIDRejectsControlCharacters pins the coalescing-key guard: a
// crafted ID containing a control character (which could collide with
// another project's shard job key, built as id+compactJobSuffix) is
// rejected at creation.
func TestProjectIDRejectsControlCharacters(t *testing.T) {
	p := New(68)
	defer p.Close()
	for _, id := range []string{"p" + compactJobSuffix, "a\nb", "tab\tid", "del\x7f"} {
		if _, err := p.CreateProject(id, demoSchema(), ProjectConfig{Rows: 1}); err == nil {
			t.Fatalf("project id %q accepted", id)
		}
	}
	if _, err := p.CreateProject("fine-id.v1", demoSchema(), ProjectConfig{Rows: 1}); err != nil {
		t.Fatal(err)
	}
}
