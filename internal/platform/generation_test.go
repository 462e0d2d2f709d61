package platform

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tcrowd/api"
	"tcrowd/internal/tabular"
	"tcrowd/internal/wal"
)

// startWriter hammers the project with unique single-answer submissions
// (each on the every-answer refresh cadence, so snapshots publish
// constantly) until the returned stop func is called (idempotent). The
// writer is paced and capped: the point is a steady stream of generation
// bumps racing the reader, not a multi-million-answer log whose EM
// refresh would take minutes to drain at Close.
func startWriter(t *testing.T, p *Platform, id string) (stop func()) {
	t.Helper()
	done := make(chan struct{})
	finished := make(chan struct{})
	var once sync.Once
	go func() {
		defer close(finished)
		for i := 0; i < writerCap; i++ {
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
			}
			w := tabular.WorkerID(fmt.Sprintf("writer-%06d", i))
			// Saturation only sheds the refresh; the answer still lands.
			_ = submitOne(p, id, w, i%3, "price", tabular.NumberValue(float64(5+i%9)))
		}
	}()
	return func() { once.Do(func() { close(done) }); <-finished }
}

// writerCap bounds the background writer's submissions. Every submission
// publishes at most one generation (RefreshEvery 1), so the coherence
// test's retention ring — sized comfortably above writerCap plus the
// explicit publishes — can never evict the pinned generation mid-walk
// however the goroutines schedule: the zero-retry claim is structural,
// not a timing accident.
const writerCap = 100

// TestPagedWalkGenerationCoherentUnderWrites is the acceptance-criterion
// read-coherence test: a small-page estimates walk racing a heavy writer
// stays pinned to one generation end to end — every page reports the
// generation the first page pinned, with zero retries (the walk never
// re-requests a page), while the model republishes underneath. A
// background writer publishes concurrently throughout AND an explicit
// write + strongly consistent refresh is interleaved before every page,
// so each later page is guaranteed to be served AFTER the latest
// generation moved past the pinned one.
func TestPagedWalkGenerationCoherentUnderWrites(t *testing.T) {
	p := NewWithOptions(71, Options{Workers: 2, QueueDepth: 256, RetainGenerations: 256})
	defer p.Close()
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()
	seedProject(t, p, "hot") // RefreshEvery 1: every write is a refresh

	stop := startWriter(t, p, "hot")
	defer stop()

	getPage := func(cursor string) estimatesResp {
		t.Helper()
		q := "?limit=1"
		if cursor != "" {
			q = "?limit=1&cursor=" + cursor
		}
		resp, err := http.Get(srv.URL + "/v1/projects/hot/estimates" + q)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("page %q status %d", cursor, resp.StatusCode)
		}
		var page estimatesResp
		decodeBody(t, resp, &page)
		return page
	}

	walked := getPage("") // pins the walk's generation
	requests := 1
	for i := 0; walked.NextCursor != ""; i++ {
		// Force the model past the pinned generation before every page.
		w := tabular.WorkerID(fmt.Sprintf("interleaved-%02d", i))
		if err := submitOne(p, "hot", w, i%3, "price", tabular.NumberValue(9)); err != nil {
			t.Fatal(err)
		}
		if _, err := p.RunInference("hot"); err != nil {
			t.Fatal(err)
		}
		page := getPage(walked.NextCursor)
		requests++
		if page.Generation != walked.Generation || page.AnswersSeen != walked.AnswersSeen {
			t.Fatalf("walk spans model states: page %d at generation %d (answers %d), pinned %d (answers %d)",
				requests, page.Generation, page.AnswersSeen, walked.Generation, walked.AnswersSeen)
		}
		walked.Estimates = append(walked.Estimates, page.Estimates...)
		walked.NextCursor = page.NextCursor
	}
	stop()
	if requests < 3 {
		t.Fatalf("walk took only %d pages — not a paged walk", requests)
	}
	// The pinned generation kept serving even though the latest moved on.
	latest, err := p.Snapshot("hot")
	if err != nil {
		t.Fatal(err)
	}
	if latest.Generation <= walked.Generation {
		t.Fatalf("latest generation %d did not move past the pinned %d", latest.Generation, walked.Generation)
	}
}

// TestConditionalGet pins the poller contract: a read conditioned on the
// generation the client already holds answers 304 with no body while the
// model is unchanged, and a fresh 200 with a new ETag after a refresh
// publishes a new generation.
func TestConditionalGet(t *testing.T) {
	p := New(72)
	defer p.Close()
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()
	seedProject(t, p, "a")

	get := func(etag string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/projects/a/estimates", nil)
		if err != nil {
			t.Fatal(err)
		}
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := get("")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unconditional read status %d", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	var est estimatesResp
	decodeBody(t, resp, &est)
	if etag != fmt.Sprintf("%q", fmt.Sprint(est.Generation)) {
		t.Fatalf("ETag %q does not quote generation %d", etag, est.Generation)
	}

	// Unchanged generation: 304, empty body.
	resp = get(etag)
	body, _ := func() ([]byte, error) {
		defer resp.Body.Close()
		b := new(bytes.Buffer)
		_, err := b.ReadFrom(resp.Body)
		return b.Bytes(), err
	}()
	if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("conditional read: status %d, %d body bytes", resp.StatusCode, len(body))
	}
	if resp.Header.Get("ETag") != etag {
		t.Fatalf("304 lost the ETag: %q", resp.Header.Get("ETag"))
	}

	// A wildcard and a stale tag in a list also match correctly.
	if resp = get("*"); resp.StatusCode != http.StatusNotModified {
		t.Fatalf("wildcard conditional status %d", resp.StatusCode)
	}
	resp.Body.Close()
	if resp = get(`"999", ` + etag); resp.StatusCode != http.StatusNotModified {
		t.Fatalf("list conditional status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// New answers + refresh publish a new generation: same conditional
	// read now returns a fresh 200 with a new ETag.
	if err := submitOne(p, "a", "w9", 1, "price", tabular.NumberValue(42)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunInference("a"); err != nil {
		t.Fatal(err)
	}
	resp = get(etag)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-refresh conditional status %d", resp.StatusCode)
	}
	var fresh estimatesResp
	decodeBody(t, resp, &fresh)
	if fresh.Generation != est.Generation+1 || resp.Header.Get("ETag") == etag {
		t.Fatalf("post-refresh read: generation %d (was %d), ETag %q",
			fresh.Generation, est.Generation, resp.Header.Get("ETag"))
	}
}

// TestGenerationRetainedRing pins the retention contract: recent
// generations stay addressable (?generation= and SnapshotAt), evicted ones
// answer 410 generation_gone, and unpublished ones 404 no_snapshot.
func TestGenerationRetainedRing(t *testing.T) {
	p := NewWithOptions(73, Options{RetainGenerations: 2})
	defer p.Close()
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()
	seedProject(t, p, "a") // publishes generation 1
	for gen := 2; gen <= 4; gen++ {
		w := tabular.WorkerID(fmt.Sprintf("g%d", gen))
		if err := submitOne(p, "a", w, 2, "price", tabular.NumberValue(float64(gen))); err != nil {
			t.Fatal(err)
		}
		if _, err := p.RunInference("a"); err != nil {
			t.Fatal(err)
		}
	}
	latest, err := p.Snapshot("a")
	if err != nil || latest.Generation != 4 {
		t.Fatalf("latest generation: %+v %v", latest, err)
	}
	// Ring holds 3 and 4; SnapshotAt serves both, with distinct contents.
	for gen := 3; gen <= 4; gen++ {
		res, err := p.SnapshotAt("a", gen)
		if err != nil || res.Generation != gen {
			t.Fatalf("SnapshotAt(%d): %+v %v", gen, res, err)
		}
	}
	g3, _ := p.SnapshotAt("a", 3)
	if g3 == latest || g3.AnswersSeen >= latest.AnswersSeen {
		t.Fatalf("retained generation is not a distinct older state: %+v vs %+v", g3, latest)
	}

	status := func(q string) int {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/projects/a/estimates" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status("?generation=3"); got != http.StatusOK {
		t.Fatalf("retained generation read status %d", got)
	}
	// Evicted: 410 generation_gone (same for a cursor pinning it).
	resp, err := http.Get(srv.URL + "/v1/projects/a/estimates?generation=1")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("evicted generation status %d", resp.StatusCode)
	}
	if e := decodeEnvelope(t, resp); e.Code != api.CodeGenerationGone {
		t.Fatalf("evicted generation code %q", e.Code)
	}
	if got := status("?cursor=1:2"); got != http.StatusGone {
		t.Fatalf("evicted cursor status %d", got)
	}
	// Not yet published: 404 no_snapshot (retryable).
	resp, err = http.Get(srv.URL + "/v1/projects/a/estimates?generation=99")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("future generation status %d", resp.StatusCode)
	}
	if e := decodeEnvelope(t, resp); e.Code != api.CodeNoSnapshot || !e.Retryable {
		t.Fatalf("future generation envelope: %+v", e)
	}
}

// TestWatchLongPoll pins the long-poll contract: an immediate catch-up
// event when the project is already past ?after=, a parked request woken
// by the next publish, and 204 on timeout.
func TestWatchLongPoll(t *testing.T) {
	p := New(74)
	defer p.Close()
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()
	seedProject(t, p, "a") // generation 1 published

	// after=0 < latest: immediate catch-up.
	resp, err := http.Get(srv.URL + "/v1/projects/a/watch?after=0&timeout=5")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("catch-up poll status %d", resp.StatusCode)
	}
	var ev api.WatchEvent
	decodeBody(t, resp, &ev)
	if ev.Generation != 1 || ev.Project != "a" || ev.AnswersSeen == 0 || ev.ChangedCells == 0 {
		t.Fatalf("catch-up event: %+v", ev)
	}
	if ev.Coalesced {
		t.Fatalf("single-step catch-up flagged coalesced: %+v", ev)
	}

	// Parked poll: wakes on the next publish with its exact event.
	type pollResult struct {
		status int
		ev     api.WatchEvent
	}
	got := make(chan pollResult, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/v1/projects/a/watch?after=1&timeout=30")
		if err != nil {
			t.Error(err)
			return
		}
		var r pollResult
		r.status = resp.StatusCode
		if resp.StatusCode == http.StatusOK {
			_ = json.NewDecoder(resp.Body).Decode(&r.ev)
		}
		resp.Body.Close()
		got <- r
	}()
	time.Sleep(50 * time.Millisecond) // let the poll park
	if err := submitOne(p, "a", "w9", 1, "price", tabular.NumberValue(7)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunInference("a"); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got:
		if r.status != http.StatusOK || r.ev.Generation != 2 || r.ev.AnswersDelta != 1 {
			t.Fatalf("parked poll result: %+v", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parked poll never woke on the publish")
	}

	// Nothing newer + short timeout: 204, no body.
	resp, err = http.Get(srv.URL + "/v1/projects/a/watch?after=99&timeout=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("timeout poll status %d", resp.StatusCode)
	}

	// Catch-up across more than one missed generation flags the gap.
	resp, err = http.Get(srv.URL + "/v1/projects/a/watch?after=0&timeout=5")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, &ev)
	if ev.Generation != 2 || !ev.Coalesced {
		t.Fatalf("multi-step catch-up event: %+v", ev)
	}
}

// TestWatchSSE streams generation bumps over Accept: text/event-stream
// and checks every published generation arrives, in order, as a
// `generation` event.
func TestWatchSSE(t *testing.T) {
	p := New(75)
	defer p.Close()
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()
	seedProject(t, p, "a") // generation 1

	req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/projects/a/watch", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		t.Fatalf("SSE handshake: status %d, content-type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}

	events := make(chan api.WatchEvent, 16)
	var readerErr atomic.Value
	go func() {
		sc := bufio.NewScanner(resp.Body)
		var name string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				if name != api.WatchEventGeneration {
					readerErr.Store(fmt.Errorf("unexpected event type %q", name))
					return
				}
				var ev api.WatchEvent
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
					readerErr.Store(err)
					return
				}
				events <- ev
			}
		}
	}()

	next := func() api.WatchEvent {
		t.Helper()
		select {
		case ev := <-events:
			return ev
		case <-time.After(10 * time.Second):
			if err, _ := readerErr.Load().(error); err != nil {
				t.Fatal(err)
			}
			t.Fatal("no SSE event in time")
			return api.WatchEvent{}
		}
	}
	if ev := next(); ev.Generation != 1 {
		t.Fatalf("SSE catch-up event: %+v", ev)
	}
	for gen := 2; gen <= 4; gen++ {
		w := tabular.WorkerID(fmt.Sprintf("sse%d", gen))
		if err := submitOne(p, "a", w, 1, "price", tabular.NumberValue(float64(gen))); err != nil {
			t.Fatal(err)
		}
		if _, err := p.RunInference("a"); err != nil {
			t.Fatal(err)
		}
		if ev := next(); ev.Generation != gen || ev.Coalesced {
			t.Fatalf("SSE live event for generation %d: %+v", gen, ev)
		}
	}
}

// TestWatchCoalescesSlowConsumer pins the bounded-buffer rule at the
// notifier layer: a subscriber that never drains gets its oldest pending
// bumps dropped, keeps at most watchBuffer pending events, still ends on
// the latest generation, and the drop is observable as a gap in the
// strictly increasing Generation sequence — the publisher is never
// blocked and never buffers unboundedly.
func TestWatchCoalescesSlowConsumer(t *testing.T) {
	p := New(76)
	defer p.Close()
	seedProject(t, p, "a") // generation 1
	w, err := p.Watch("a")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	const publishes = watchBuffer + 8
	for i := 0; i < publishes; i++ {
		wid := tabular.WorkerID(fmt.Sprintf("slow%03d", i))
		if err := submitOne(p, "a", wid, i%3, "price", tabular.NumberValue(float64(i))); err != nil {
			t.Fatal(err)
		}
		if _, err := p.RunInference("a"); err != nil {
			t.Fatal(err)
		}
	}
	latest, _ := p.Snapshot("a")

	var got []api.WatchEvent
drain:
	for {
		select {
		case ev := <-w.Events():
			got = append(got, ev)
		default:
			break drain
		}
	}
	if len(got) > watchBuffer {
		t.Fatalf("slow watcher buffered %d events, cap %d", len(got), watchBuffer)
	}
	last := got[len(got)-1]
	if last.Generation != latest.Generation {
		t.Fatalf("slow watcher's newest event is generation %d, latest is %d", last.Generation, latest.Generation)
	}
	gap := got[0].Generation > 2 // subscribed at generation 1, so first delivery past 2 means drops
	for i := 1; i < len(got); i++ {
		if got[i].Generation <= got[i-1].Generation {
			t.Fatalf("events out of order: %d then %d", got[i-1].Generation, got[i].Generation)
		}
		if got[i].Generation > got[i-1].Generation+1 {
			gap = true
		}
	}
	if !gap {
		t.Fatalf("%d publishes into a %d-slot buffer left no generation gap: %+v", publishes, watchBuffer, got)
	}
}

// TestWatchClosesOnPlatformClose pins shutdown: watcher channels close
// after the drain, so consumers see every generation published by queued
// refreshes and then a clean end of stream.
func TestWatchClosesOnPlatformClose(t *testing.T) {
	p := New(77)
	seedProject(t, p, "a")
	w, err := p.Watch("a")
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case _, open := <-w.Events():
			if !open {
				return // clean close
			}
		case <-deadline:
			t.Fatal("watcher channel did not close on platform shutdown")
		}
	}
}

// TestLoadWarmupServesSnapshot pins the restart story: when Recover loads
// a platform from its WAL, every project with answers gets a warmup
// refresh enqueued, so the generation-pinned read path serves WITHOUT any
// post-restart write (it used to 404 until the first submission).
func TestLoadWarmupServesSnapshot(t *testing.T) {
	fs := wal.NewMemFS()
	p := NewWithOptions(78, walTestOpts(fs, wal.SyncAlways))
	if _, err := p.CreateProject("a", demoSchema(), ProjectConfig{Rows: 3}); err != nil {
		t.Fatal(err)
	}
	for _, w := range []tabular.WorkerID{"w1", "w2", "w3"} {
		if err := submitOne(p, "a", w, 0, "category", tabular.LabelValue(1)); err != nil {
			t.Fatal(err)
		}
	}
	// An empty project rides along: it must not break the warmup sweep.
	if _, err := p.CreateProject("empty", demoSchema(), ProjectConfig{Rows: 2}); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	reloaded, _, err := Recover(78, walTestOpts(fs, wal.SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	defer reloaded.Close()
	srv := httptest.NewServer(NewServer(reloaded))
	defer srv.Close()

	// No writes after restart — the warmup refresh alone must publish.
	waitFor(t, func() bool { _, err := reloaded.Snapshot("a"); return err == nil })
	res, err := reloaded.Snapshot("a")
	if err != nil {
		t.Fatal(err)
	}
	st, _ := reloaded.Stats("a")
	if res.Generation != 1 || res.AnswersSeen != st.Answers {
		t.Fatalf("warmup snapshot: %+v (answers %d)", res, st.Answers)
	}
	resp, err := http.Get(srv.URL + "/v1/projects/a/estimates")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart pinned read status %d", resp.StatusCode)
	}
	// The empty project still has nothing to serve: 404 no_snapshot.
	resp, err = http.Get(srv.URL + "/v1/projects/empty/estimates")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("empty project post-restart status %d", resp.StatusCode)
	}
}
