package platform

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"tcrowd/api"
	"tcrowd/internal/shard"
	"tcrowd/internal/tabular"
)

// Server exposes the platform over HTTP — the interface a crowdsourcing
// frontend (or AMT external-HIT iframe) would talk to. See
// cmd/tcrowd-server/README.md for the full API reference and package api
// for the wire types.
//
// The versioned surface (stable within /v1):
//
//	POST /v1/projects                     {"id", "schema", "rows"}
//	GET  /v1/projects                     -> ["id", ...]
//	GET  /v1/projects/{id}/tasks?worker=u&count=k
//	POST /v1/projects/{id}/answers        one answer or {"answers": [...]} batch
//	GET  /v1/projects/{id}/estimates      generation-pinned read (see below)
//	GET  /v1/projects/{id}/snapshot       deprecated alias of /estimates (same body)
//	GET  /v1/projects/{id}/watch          generation-bump stream (long-poll or SSE)
//	GET  /v1/projects/{id}/stats          collection progress
//	GET  /v1/stats                        shard-scheduler metrics
//
// All reads of model state are generation-pinned: every response serves
// one immutable published InferenceResult, identified by its generation,
// quoted in the ETag header (If-None-Match yields 304), and encoded into
// the pagination cursor so a paged walk never spans model states.
// ?generation= re-reads a retained past state; ?min_generation= is the
// refresh-if-stale knob (a value above the latest generation routes one
// coalescing refresh through the project's shard and waits — the strongly
// consistent read). The pre-v1 unversioned aliases were removed this
// release and now 404.
//
// Errors are typed: every non-2xx body is an api.ErrorEnvelope with a
// stable machine-readable code (see internal/platform/errors.go for the
// exhaustive sentinel → (status, code, retryable) table). Backpressure:
// only the ?min_generation= refresh path can answer 429 (saturated
// shard); default reads never touch the queue. POST /v1/.../answers
// records the answers and reports a shed refresh in-body instead of
// failing.
type Server struct {
	p       *Platform
	mux     *http.ServeMux
	limiter *RateLimiter
}

// NewServer wraps a platform with HTTP handlers.
func NewServer(p *Platform) *Server {
	s := &Server{p: p, mux: http.NewServeMux()}
	s.registerRoutes()
	return s
}

// SetRateLimiter installs a per-worker token-bucket limiter on the
// answer-submission and task-request paths (nil = unlimited, the
// default). Call before serving traffic; the limiter itself is
// goroutine-safe.
func (s *Server) SetRateLimiter(l *RateLimiter) { s.limiter = l }

// writeRateLimited renders the 429 rate_limited envelope with a computed
// Retry-After (writeErr's blanket hint is a fixed 1s; the limiter knows
// the actual refill time).
func writeRateLimited(w http.ResponseWriter, wait time.Duration) {
	spec := classifyErr(ErrRateLimited)
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs(wait)))
	writeJSON(w, spec.status, api.ErrorEnvelope{Err: api.Error{
		Code:      spec.code,
		Message:   ErrRateLimited.Error(),
		Retryable: spec.retryable,
	}})
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// WriteError renders any error as the typed wire envelope through the
// exhaustive sentinel table — the renderer the cluster edge shares with
// the in-process handlers, so a routing rejection (421 not_home with the
// envelope Home field) is byte-compatible with every other error the
// server emits.
func WriteError(w http.ResponseWriter, err error) { writeErr(w, err) }

// writeJSON encodes v in full before writing anything, so a value with no
// JSON form (a NaN or infinite float) answers the typed 500 internal
// envelope instead of a 200 header over an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		writeEncodeErr(w, err)
		return
	}
	writeBody(w, status, append(body, '\n'))
}

// writeEncodeErr answers a response that could not be encoded with 500
// internal. Nothing of the failed response has been written yet.
func writeEncodeErr(w http.ResponseWriter, err error) {
	w.Header().Del("ETag")
	body, _ := json.Marshal(api.ErrorEnvelope{Err: api.Error{
		Code:    api.CodeInternal,
		Message: "platform: encoding response: " + err.Error(),
	}})
	writeBody(w, http.StatusInternalServerError, append(body, '\n'))
}

// writeBody writes a complete JSON body with its Content-Length, so it
// goes out in one piece rather than chunked.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// writeErr renders any error as the typed envelope, resolving status, code
// and retryability through the exhaustive sentinel table (errors.go). A
// *BatchError renders as CodeBatchRejected with per-item detail.
func writeErr(w http.ResponseWriter, err error) {
	var be *BatchError
	if errors.As(err, &be) {
		writeBatchErr(w, be)
		return
	}
	spec := classifyErr(err)
	if spec.status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	env := api.ErrorEnvelope{Err: api.Error{
		Code:      spec.code,
		Message:   err.Error(),
		Retryable: spec.retryable,
	}}
	// A not_home rejection carries the home node's base URL so clients
	// (and the SDK automatically) re-issue the request there.
	var nh *NotHomeError
	if errors.As(err, &nh) {
		env.Err.Home = nh.Home
	}
	writeJSON(w, spec.status, env)
}

// writeBatchErr renders an atomic batch rejection: 400, CodeBatchRejected,
// one item per offending answer (each with its own code).
func writeBatchErr(w http.ResponseWriter, be *BatchError) {
	items := make([]api.ItemError, len(be.Items))
	for i, it := range be.Items {
		items[i] = api.ItemError{
			Index:   it.Index,
			Code:    classifyErr(it.Err).code,
			Message: it.Err.Error(),
		}
	}
	writeJSON(w, http.StatusBadRequest, api.ErrorEnvelope{Err: api.Error{
		Code:    api.CodeBatchRejected,
		Message: fmt.Sprintf("%d invalid answer(s); nothing recorded", len(items)),
		Items:   items,
	}})
}

type createProjectReq struct {
	ID     string         `json:"id"`
	Schema tabular.Schema `json:"schema"`
	Rows   int            `json:"rows"`
	TCrowd bool           `json:"tcrowd_assignment"`
	// RefreshEvery bounds submissions between inference refreshes
	// (0 = default 25, 1 = refresh per answer).
	RefreshEvery int `json:"refresh_every"`
	// FsyncPolicy overrides the server-wide WAL fsync policy for this
	// project ("always", "interval", "never"; empty = server default).
	FsyncPolicy string `json:"fsync_policy"`
	// Reputation enables the streaming worker-reputation engine (spam
	// defense: down-weighting, quarantine, auto-ban).
	Reputation bool `json:"reputation"`
}

func (s *Server) createProject(w http.ResponseWriter, r *http.Request) {
	var req createProjectReq
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, fmt.Errorf("platform: bad request body: %w", err))
		return
	}
	if req.ID == "" {
		writeErr(w, errors.New("platform: project id required"))
		return
	}
	_, err := s.p.CreateProject(req.ID, req.Schema, ProjectConfig{
		Rows:                req.Rows,
		UseTCrowdAssignment: req.TCrowd,
		RefreshEvery:        req.RefreshEvery,
		FsyncPolicy:         req.FsyncPolicy,
		Reputation:          req.Reputation,
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, api.CreateProjectResponse{ID: req.ID})
}

func (s *Server) listProjects(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.p.ProjectIDs())
}

// deleteProject removes a project and destroys its durable log (204 on
// success). Deletion is permanent: the answers are paid human work and
// the WAL is their only saved copy, so read what matters (GET estimates)
// first.
func (s *Server) deleteProject(w http.ResponseWriter, r *http.Request) {
	if err := s.p.DeleteProject(r.PathValue("id")); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) tasks(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	q := r.URL.Query()
	worker := q.Get("worker")
	if worker == "" {
		writeErr(w, errors.New("platform: worker query parameter required"))
		return
	}
	count, err := queryInt(q, "count", 0)
	if err != nil {
		writeErr(w, err)
		return
	}
	if ok, wait := s.limiter.Allow(worker); !ok {
		writeRateLimited(w, wait)
		return
	}
	tasks, err := s.p.RequestTasks(id, tabular.WorkerID(worker), count)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, tasks)
}

// queryInt parses an optional non-negative integer query parameter,
// rejecting trailing garbage ("5x") and negatives with a typed
// bad_request.
func queryInt(q url.Values, name string, def int) (int, error) {
	raw := q.Get(name)
	if raw == "" {
		return def, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("platform: bad %s %q: %w", name, raw, err)
	}
	if n < 0 {
		return 0, fmt.Errorf("platform: %s must be non-negative, got %d", name, n)
	}
	return n, nil
}

// resolveAnswer converts one wire answer (column by name, label by string)
// into a platform answer plus its submission metadata, using the
// project's precomputed label index. Only immutable project state
// (schema, label maps) is touched, so it runs without the platform lock.
func resolveAnswer(proj *Project, a api.Answer) (tabular.Answer, AnswerMeta, error) {
	meta := AnswerMeta{WorkTimeMs: a.WorkTimeMs, Client: a.Client}
	if a.WorkTimeMs < 0 {
		return tabular.Answer{}, meta, fmt.Errorf("platform: negative work_time_ms %d", a.WorkTimeMs)
	}
	j := proj.Table.Schema.ColumnIndex(a.Column)
	if j < 0 {
		return tabular.Answer{}, meta, fmt.Errorf("platform: unknown column %q", a.Column)
	}
	if a.Row < 0 || a.Row >= proj.Table.NumRows() {
		return tabular.Answer{}, meta, fmt.Errorf("platform: row %d outside project (%d rows)", a.Row, proj.Table.NumRows())
	}
	var v tabular.Value
	switch {
	case a.Label != nil && a.Number != nil:
		return tabular.Answer{}, meta, errors.New("platform: answer sets both label and number")
	case a.Label != nil:
		idx, ok := proj.LabelIndex(j, *a.Label)
		if !ok {
			return tabular.Answer{}, meta, fmt.Errorf("platform: unknown label %q", *a.Label)
		}
		v = tabular.LabelValue(idx)
	case a.Number != nil:
		v = tabular.NumberValue(*a.Number)
	default:
		return tabular.Answer{}, meta, errors.New("platform: answer needs label or number")
	}
	return tabular.Answer{
		Worker: tabular.WorkerID(a.Worker),
		Cell:   tabular.Cell{Row: a.Row, Col: j},
		Value:  v,
	}, meta, nil
}

// resolveBatch resolves a slice of wire answers, collecting per-item
// errors instead of stopping at the first (batch rejections report every
// offending row at once). metas stays index-aligned with resolved.
func resolveBatch(proj *Project, answers []api.Answer) ([]tabular.Answer, []AnswerMeta, []BatchItemError) {
	resolved := make([]tabular.Answer, 0, len(answers))
	metas := make([]AnswerMeta, 0, len(answers))
	var bad []BatchItemError
	for i, a := range answers {
		ta, meta, err := resolveAnswer(proj, a)
		if err != nil {
			bad = append(bad, BatchItemError{Index: i, Err: err})
			continue
		}
		resolved = append(resolved, ta)
		metas = append(metas, meta)
	}
	return resolved, metas, bad
}

// submitV1 handles POST /v1/projects/{id}/answers: one answer or an
// "answers" batch. Batches are atomic — validated in full (every failure
// reported, nothing recorded on any failure) and recorded with at most one
// coalesced refresh enqueue. Recorded answers are always acknowledged 201;
// shard backpressure surfaces as refresh:"deferred" plus a Retry-After
// hint, never as a per-answer 429 (that legacy behaviour lives only on the
// unversioned route).
func (s *Server) submitV1(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req api.SubmitAnswersRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, fmt.Errorf("platform: bad request body: %w", err))
		return
	}
	proj, err := s.p.Project(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	batch := req.Answers != nil
	if batch && (req.Worker != "" || req.Column != "" || req.Label != nil || req.Number != nil) {
		writeErr(w, errors.New("platform: set either the single-answer fields or \"answers\", not both"))
		return
	}
	answers := req.Answers
	if !batch {
		answers = []api.Answer{req.Answer}
	}
	if len(answers) == 0 {
		writeErr(w, errors.New("platform: empty answer batch"))
		return
	}
	if s.limiter != nil {
		demand := make(map[string]float64, 1)
		for _, a := range answers {
			demand[a.Worker]++
		}
		if ok, wait := s.limiter.TakeAll(demand); !ok {
			writeRateLimited(w, wait)
			return
		}
	}
	resolved, metas, bad := resolveBatch(proj, answers)
	if len(bad) == 0 {
		var res BatchResult
		res, err = s.p.SubmitBatchMeta(id, resolved, metas)
		if err == nil {
			if res.Refresh == RefreshDeferred {
				w.Header().Set("Retry-After", "1")
			}
			writeJSON(w, http.StatusCreated, api.SubmitAnswersResponse{
				Status:   "recorded",
				Recorded: res.Recorded,
				Refresh:  string(res.Refresh),
			})
			return
		}
	} else {
		err = &BatchError{Items: bad}
	}
	// Single-answer requests report the answer's own error (and code)
	// directly; batches report the composite batch_rejected envelope.
	var be *BatchError
	if !batch && errors.As(err, &be) {
		err = be.Items[0].Err
	}
	writeErr(w, err)
}

// etagFor quotes a generation as the strong ETag every pinned read
// carries.
func etagFor(generation int) string { return `"` + strconv.Itoa(generation) + `"` }

// etagMatches reports whether an If-None-Match header value matches the
// generation's ETag (either the exact quoted tag or the * wildcard).
func etagMatches(header string, generation int) bool {
	if header == "" {
		return false
	}
	tag := etagFor(generation)
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		part = strings.TrimPrefix(part, "W/") // weak compare: generations are whole-body
		if part == tag || part == "*" {
			return true
		}
	}
	return false
}

// snapshotAlias serves GET .../snapshot, the deprecated alias of
// .../estimates: the same response, plus a Deprecation header and a Link
// to the successor route.
func (s *Server) snapshotAlias(w http.ResponseWriter, r *http.Request) {
	h := w.Header()
	h.Set("Deprecation", "true")
	h.Set("Link", "</v1/projects/"+url.PathEscape(r.PathValue("id"))+`/estimates>; rel="successor-version"`)
	s.estimates(w, r)
}

// estimates serves the merged generation-pinned read (GET .../estimates
// and its deprecated .../snapshot alias). Resolution order:
//
//   - ?cursor=<gen>:<ord> — continue a paged walk over the generation the
//     cursor pins (the retained ring keeps it addressable; 410
//     generation_gone once evicted).
//   - ?generation=N — re-read a specific retained generation from the top.
//   - ?min_generation=N — refresh-if-stale: serve the latest snapshot if
//     its generation is already >= N, otherwise route one coalescing
//     refresh through the project's shard and wait for it (the only read
//     path that can 429); a refresh absorbs the whole log, so N above any
//     published generation gives the strongly consistent read.
//   - no parameters — the latest published snapshot, one atomic pointer
//     load, never blocking on inference (404 no_snapshot before the first
//     publish).
//
// Every 200 carries ETag:"<generation>"; If-None-Match on an unchanged
// generation short-circuits to 304 with no body.
func (s *Server) estimates(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	proj, err := s.p.Project(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	q := r.URL.Query()
	limit, err := queryInt(q, "limit", 0)
	if err != nil {
		writeErr(w, err)
		return
	}
	generation, err := queryInt(q, "generation", 0)
	if err != nil {
		writeErr(w, err)
		return
	}
	minGen, err := queryInt(q, "min_generation", 0)
	if err != nil {
		writeErr(w, err)
		return
	}

	var (
		res   *InferenceResult
		start int
	)
	cursor := q.Get("cursor")
	switch {
	case cursor != "":
		var gen int
		if gen, start, err = decodeCursor(cursor); err != nil {
			break
		}
		if generation != 0 && generation != gen {
			err = fmt.Errorf("platform: cursor pins generation %d but ?generation=%d", gen, generation)
			break
		}
		res, err = s.p.SnapshotAt(id, gen)
	case generation != 0:
		res, err = s.p.SnapshotAt(id, generation)
	case minGen != 0:
		res, err = s.p.Snapshot(id)
		if err != nil || res.Generation < minGen {
			// Stale (or nothing published yet): one coalescing refresh on
			// the project's shard brings the snapshot up to the full log.
			res, err = s.p.RunInference(id)
		}
	default:
		res, err = s.p.Snapshot(id)
	}
	if err != nil {
		writeErr(w, err)
		return
	}

	w.Header().Set("ETag", etagFor(res.Generation))
	if etagMatches(r.Header.Get("If-None-Match"), res.Generation) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	st, _ := s.p.Stats(id)
	pw := getPageWriter()
	defer putPageWriter(pw)
	if err := pw.write(proj, res, res.AnswersSeen == st.Answers, start, limit, cursor == ""); err != nil {
		writeEncodeErr(w, err)
		return
	}
	writeBody(w, http.StatusOK, pw.buf)
}

// Long-poll bounds: the default and maximum ?timeout= of a watch
// long-poll. A 0 timeout degrades to an instant poll (current event or
// 204).
const (
	watchDefaultTimeout = 30 * time.Second
	watchMaxTimeout     = 120 * time.Second
)

// watch serves GET /v1/projects/{id}/watch — push-based delivery of
// generation bumps, fed by the snapshot-publication notifier on the shard
// worker's copy-on-publish path.
//
// Long-poll (default): ?after=<generation> answers immediately with the
// latest event once the project has published past `after` (Coalesced set
// when more than one bump was missed), otherwise parks the request until
// the next publish or ?timeout= seconds (204 No Content on timeout —
// re-poll with the same after). Pollers chain after=<last generation
// seen>.
//
// SSE (Accept: text/event-stream): streams one `event: generation` frame
// per publish until the client disconnects or the platform shuts down,
// with the same catch-up event on connect and the same drop-to-latest
// coalescing for slow consumers.
func (s *Server) watch(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	q := r.URL.Query()
	after, err := queryInt(q, "after", 0)
	if err != nil {
		writeErr(w, err)
		return
	}
	timeoutSec, err := queryInt(q, "timeout", int(watchDefaultTimeout/time.Second))
	if err != nil {
		writeErr(w, err)
		return
	}
	timeout := min(time.Duration(timeoutSec)*time.Second, watchMaxTimeout)

	// Subscribe BEFORE the catch-up check: a publish landing between the
	// two is then either caught up or delivered on the channel, never
	// lost.
	watcher, err := s.p.Watch(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	defer watcher.Close()
	catchup, ok, err := s.p.LatestEvent(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	if ok && catchup.Generation > after {
		catchup.Coalesced = catchup.Generation > after+1
	} else {
		ok = false
	}

	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		s.watchSSE(w, r, watcher, catchup, ok, after)
		return
	}

	if ok {
		w.Header().Set("ETag", etagFor(catchup.Generation))
		writeJSON(w, http.StatusOK, catchup)
		return
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	for {
		select {
		case ev, open := <-watcher.Events():
			if !open {
				writeErr(w, fmt.Errorf("platform: watch ended: %w", shard.ErrClosed))
				return
			}
			if ev.Generation <= after {
				continue // stale buffered bump from before this poll's after
			}
			// A generation jump means this watcher's buffer dropped
			// intermediate bumps (or the poll raced multiple publishes):
			// mark the delivery that follows the gap.
			ev.Coalesced = ev.Generation > after+1
			w.Header().Set("ETag", etagFor(ev.Generation))
			writeJSON(w, http.StatusOK, ev)
			return
		case <-t.C:
			w.WriteHeader(http.StatusNoContent)
			return
		case <-r.Context().Done():
			return
		}
	}
}

// watchSSE streams generation events until the client goes away or the
// platform closes. Heartbeat comments keep idle connections alive through
// proxies.
func (s *Server) watchSSE(w http.ResponseWriter, r *http.Request, watcher *Watcher, catchup api.WatchEvent, haveCatchup bool, after int) {
	flusher, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	writeEvent := func(ev api.WatchEvent) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", api.WatchEventGeneration, data); err != nil {
			return false
		}
		if canFlush {
			flusher.Flush()
		}
		return true
	}
	last := after
	if haveCatchup {
		if !writeEvent(catchup) {
			return
		}
		last = catchup.Generation
	} else if canFlush {
		flusher.Flush() // commit the headers so the client sees the stream open
	}
	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	for {
		select {
		case ev, open := <-watcher.Events():
			if !open {
				return // platform shutting down: end the stream cleanly
			}
			if ev.Generation <= last {
				continue // buffered duplicate of the catch-up event
			}
			// Gap after a buffer overflow: flag the event that follows it.
			ev.Coalesced = ev.Generation > last+1
			if !writeEvent(ev) {
				return
			}
			last = ev.Generation
		case <-heartbeat.C:
			if _, err := io.WriteString(w, ": keepalive\n\n"); err != nil {
				return
			}
			if canFlush {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}

// shardStatsResp is the GET /v1/stats payload, defined in package api and
// aliased for the server-side tests.
type shardStatsResp = api.ShardStatsResponse

func (s *Server) shardStats(w http.ResponseWriter, r *http.Request) {
	ms := s.p.ShardMetrics()
	resp := shardStatsResp{Workers: s.p.NumShardWorkers(), Shards: make([]api.ShardMetrics, len(ms))}
	for i, m := range ms {
		resp.Shards[i] = api.ShardMetrics{
			Shard:     m.Shard,
			Depth:     m.Depth,
			Enqueued:  m.Enqueued,
			Coalesced: m.Coalesced,
			Rejected:  m.Rejected,
			Completed: m.Completed,
			Failed:    m.Failed,
			BusyNs:    m.BusyNs,
			LastJobNs: m.LastJobNs,
		}
		resp.Totals.Depth += m.Depth
		resp.Totals.Enqueued += m.Enqueued
		resp.Totals.Coalesced += m.Coalesced
		resp.Totals.Rejected += m.Rejected
		resp.Totals.Completed += m.Completed
		resp.Totals.Failed += m.Failed
		resp.Totals.BusyNs += m.BusyNs
	}
	if resp.Totals.Completed > 0 {
		resp.Totals.AvgJobMs = float64(resp.Totals.BusyNs) / float64(resp.Totals.Completed) / 1e6
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) stats(w http.ResponseWriter, r *http.Request) {
	st, err := s.p.Stats(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// workers serves GET /v1/projects/{id}/workers — the reputation roster.
// With the defense off the response is {"defense": false} and an empty
// list; with it on, one row per observed worker (state, score, counters,
// current inference weight), sorted by worker ID.
func (s *Server) workers(w http.ResponseWriter, r *http.Request) {
	infos, enabled, err := s.p.WorkerReputations(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	resp := api.WorkersResponse{Defense: enabled, Workers: []api.WorkerReputation{}}
	for _, in := range infos {
		resp.Workers = append(resp.Workers, api.WorkerReputation{
			Worker: string(in.Worker),
			State:  in.State.String(),
			Score:  in.Score,
			Seen:   in.Seen,
			Judged: in.Judged,
			Weight: in.Weight,
			ModelQ: in.ModelQ,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}
