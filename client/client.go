// Package client is the official Go SDK for the tcrowd-server /v1 wire
// API (package api defines the shared types). It supports contexts on
// every call, surfaces server errors as typed *APIError values mirroring
// the error envelope, honours Retry-After backoff automatically on 429
// responses, and offers batch submission helpers.
//
//	c := client.New("http://127.0.0.1:8080")
//	err := c.CreateProject(ctx, api.CreateProjectRequest{ID: "books", ...})
//	tasks, err := c.Tasks(ctx, "books", "w1", 4)
//	res, err := c.SubmitAnswers(ctx, "books", batch) // one POST, one refresh
//	est, err := c.AllEstimates(ctx, "books", 10_000, client.EstimatesQuery{})
//
// Reads are generation-pinned: every EstimatesResponse names the published
// model Generation it serves, pagination cursors re-encode it (so a paged
// walk never spans model states — AllEstimates needs no retries), pollers
// skip unchanged downloads with EstimatesQuery.IfNotGeneration /
// ErrNotModified, and Watch/WatchStream push generation bumps instead of
// polling at all.
//
// Error handling dispatches on the stable machine code:
//
//	var ae *client.APIError
//	if errors.As(err, &ae) && ae.Code == api.CodeAlreadyAnswered { ... }
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"tcrowd/api"
)

// ErrNotModified is returned by Estimates when the server answered 304:
// the model is still at EstimatesQuery.IfNotGeneration, so there is
// nothing new to download.
var ErrNotModified = errors.New("tcrowd: not modified")

// Client talks to one tcrowd-server. It is safe for concurrent use.
type Client struct {
	base       string
	hc         *http.Client
	maxRetries int
	maxWait    time.Duration
}

// Option configures New.
type Option func(*Client)

// WithHTTPClient replaces the underlying *http.Client (timeouts,
// transports, instrumentation). A Timeout set here applies to the
// request/response calls only: the streaming paths (Watch, WatchStream)
// reuse the transport but strip the overall Timeout, bounding themselves
// with contexts instead — otherwise a parked long-poll or an idle SSE
// stream would be killed mid-flight.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithMaxRetries sets how many times a retryable 429 is retried after
// honouring its Retry-After delay (default 3; 0 disables backoff).
func WithMaxRetries(n int) Option { return func(c *Client) { c.maxRetries = n } }

// WithMaxRetryWait caps a single Retry-After sleep (default 5s), guarding
// against a server asking for pathological delays.
func WithMaxRetryWait(d time.Duration) Option { return func(c *Client) { c.maxWait = d } }

// New returns a client for the server at baseURL (e.g.
// "http://127.0.0.1:8080"); a trailing slash is trimmed.
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:       trimSlash(baseURL),
		hc:         http.DefaultClient,
		maxRetries: 3,
		maxWait:    5 * time.Second,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

func trimSlash(s string) string {
	for len(s) > 0 && s[len(s)-1] == '/' {
		s = s[:len(s)-1]
	}
	return s
}

// streamHC returns the configured client minus its overall Timeout: a
// request/response deadline is right for the short-lived calls but would
// kill a long-poll parked at the server (by design up to 125s) or an SSE
// stream (unbounded) mid-flight. The streaming paths bound themselves
// with contexts instead; the transport (proxies, TLS config,
// instrumentation) is preserved.
func (c *Client) streamHC() *http.Client {
	if c.hc.Timeout == 0 {
		return c.hc
	}
	hc := *c.hc
	hc.Timeout = 0
	return &hc
}

// APIError is a non-2xx server response, decoded from the typed error
// envelope. Responses without a parseable envelope (proxies, panics)
// yield Code api.CodeBadRequest with the raw body as Message.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the stable machine-readable error code (api.Code*).
	Code string
	// Message is the human-readable detail.
	Message string
	// Retryable mirrors the envelope's retryable flag.
	Retryable bool
	// Items carries per-answer failures for api.CodeBatchRejected.
	Items []api.ItemError
	// RetryAfter is the server's Retry-After hint (0 when absent).
	RetryAfter time.Duration
	// Home is the project's home node base URL, set on api.CodeNotHome
	// (421) responses from a cluster node that does not own the project.
	// The client follows it automatically; it is surfaced for callers that
	// want to re-point themselves at the home node for future requests.
	Home string
}

// Error implements the error interface.
func (e *APIError) Error() string {
	return fmt.Sprintf("tcrowd: %d %s: %s", e.Status, e.Code, e.Message)
}

// maxHomeFollows bounds how many 421 not_home referrals one logical call
// follows — enough for one stale hop plus the fresh answer, while a
// misconfigured cluster bouncing a project between nodes fails fast
// instead of looping.
const maxHomeFollows = 2

// do issues one request (with 429 backoff) and decodes a 2xx body into
// out (skipped when out is nil). hdr carries extra request headers (nil
// for none); a 304 response surfaces as ErrNotModified. A 421 not_home
// from a cluster node is followed transparently to the home node named in
// the envelope.
func (c *Client) do(ctx context.Context, method, path string, hdr http.Header, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("tcrowd: encoding request: %w", err)
		}
	}
	base := c.base
	follows := 0
	for attempt := 0; ; attempt++ {
		err := c.doOnce(ctx, method, base+path, hdr, body, out)
		ae, ok := err.(*APIError)
		if ok && ae.Code == api.CodeNotHome && ae.Home != "" && follows < maxHomeFollows {
			follows++
			base = trimSlash(ae.Home)
			continue
		}
		if !ok || !ae.Retryable || ae.Status != http.StatusTooManyRequests || attempt >= c.maxRetries {
			return err
		}
		wait := ae.RetryAfter
		if wait <= 0 {
			wait = time.Second
		}
		if wait > c.maxWait {
			wait = c.maxWait
		}
		t := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
}

func (c *Client) doOnce(ctx context.Context, method, url string, hdr http.Header, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotModified {
		return ErrNotModified
	}
	if resp.StatusCode >= 300 {
		return decodeErr(resp)
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	return decodeBody(resp, out)
}

// maxPooledBody caps the buffers returned to bodyPool: one huge read must
// not pin its body in the pool for good.
const maxPooledBody = 1 << 20

var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decodeBody reads a 2xx body whole into a pooled buffer and unmarshals
// it: one read sized by Content-Length, instead of a json.Decoder growing
// its own buffer on every call.
func decodeBody(resp *http.Response, out any) error {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		if buf.Cap() <= maxPooledBody {
			bodyPool.Put(buf)
		}
	}()
	if n := resp.ContentLength; n > 0 {
		// MinRead spare keeps ReadFrom from regrowing at EOF.
		buf.Grow(int(min(n, maxPooledBody)) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return fmt.Errorf("tcrowd: reading response: %w", err)
	}
	if err := json.Unmarshal(buf.Bytes(), out); err != nil {
		return fmt.Errorf("tcrowd: decoding response: %w", err)
	}
	return nil
}

// decodeErr builds the *APIError for a non-2xx response.
func decodeErr(resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	ae := &APIError{Status: resp.StatusCode}
	var env api.ErrorEnvelope
	if json.Unmarshal(raw, &env) == nil && env.Err.Code != "" {
		ae.Code = env.Err.Code
		ae.Message = env.Err.Message
		ae.Retryable = env.Err.Retryable
		ae.Items = env.Err.Items
		ae.Home = env.Err.Home
	} else {
		ae.Code = api.CodeBadRequest
		ae.Message = string(raw)
	}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
			ae.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return ae
}

// CreateProject registers a new campaign.
func (c *Client) CreateProject(ctx context.Context, req api.CreateProjectRequest) error {
	return c.do(ctx, http.MethodPost, "/v1/projects", nil, req, nil)
}

// DeleteProject permanently removes a project and its durable answer
// log. The delete is crash-safe on the server but irreversible: answers
// are paid human work, so read anything that matters first.
func (c *Client) DeleteProject(ctx context.Context, project string) error {
	return c.do(ctx, http.MethodDelete, "/v1/projects/"+url.PathEscape(project), nil, nil, nil)
}

// Projects lists registered project ids, sorted.
func (c *Client) Projects(ctx context.Context) ([]string, error) {
	var ids []string
	err := c.do(ctx, http.MethodGet, "/v1/projects", nil, nil, &ids)
	return ids, err
}

// Tasks requests up to count dynamically assigned cells for worker
// (count 0 = server default: one per column).
func (c *Client) Tasks(ctx context.Context, project, worker string, count int) ([]api.Task, error) {
	q := url.Values{"worker": {worker}}
	if count > 0 {
		q.Set("count", strconv.Itoa(count))
	}
	var tasks []api.Task
	err := c.do(ctx, http.MethodGet, "/v1/projects/"+url.PathEscape(project)+"/tasks?"+q.Encode(), nil, nil, &tasks)
	return tasks, err
}

// SubmitAnswer records a single answer.
func (c *Client) SubmitAnswer(ctx context.Context, project string, a api.Answer) (*api.SubmitAnswersResponse, error) {
	var out api.SubmitAnswersResponse
	err := c.do(ctx, http.MethodPost, "/v1/projects/"+url.PathEscape(project)+"/answers",
		nil, api.SubmitAnswersRequest{Answer: a}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// SubmitAnswers records a batch atomically in one round trip: all answers
// are validated up front (an *APIError with Code api.CodeBatchRejected and
// per-item detail reports every invalid row, and nothing is recorded), and
// an accepted batch enqueues at most one coalesced inference refresh
// however large it is. Response.Refresh == api.RefreshDeferred signals
// shard backpressure — the answers ARE recorded; slow down before the next
// batch rather than resubmitting.
func (c *Client) SubmitAnswers(ctx context.Context, project string, answers []api.Answer) (*api.SubmitAnswersResponse, error) {
	var out api.SubmitAnswersResponse
	err := c.do(ctx, http.MethodPost, "/v1/projects/"+url.PathEscape(project)+"/answers",
		nil, api.SubmitAnswersRequest{Answers: answers}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// EstimatesQuery selects which published model generation Estimates
// serves and how. The zero value reads the latest published snapshot —
// one atomic pointer load at the server, never blocked behind inference.
type EstimatesQuery struct {
	// Cursor continues a paged walk: the NextCursor of the previous page.
	// It encodes the pinned generation, so the walk stays on one model
	// state regardless of concurrent writes. Mutually exclusive with
	// Generation/MinGeneration.
	Cursor string
	// Limit caps the estimates per page (0 = everything).
	Limit int
	// Generation re-reads one specific retained generation (0 = latest).
	// An evicted generation fails with api.CodeGenerationGone.
	Generation int
	// MinGeneration is the refresh-if-stale knob: when the latest
	// published generation is below it, the server routes one coalescing
	// refresh through the project's shard and waits. Pass a generation
	// you have seen (e.g. from a watch event) for read-your-writes, or
	// api.GenerationFresh for the strongly consistent
	// reflects-every-recorded-answer read.
	MinGeneration int
	// IfNotGeneration makes the read conditional: the generation of the
	// copy you already hold. If the model is still at that generation the
	// server answers 304 and Estimates returns ErrNotModified — pollers
	// stop re-downloading unchanged models.
	IfNotGeneration int
}

// Estimates fetches one generation-pinned page of truth estimates. 429s
// (possible only on the MinGeneration refresh path) are retried with
// backoff.
func (c *Client) Estimates(ctx context.Context, project string, q EstimatesQuery) (*api.EstimatesResponse, error) {
	v := url.Values{}
	if q.Cursor != "" {
		v.Set("cursor", q.Cursor)
	}
	if q.Limit > 0 {
		v.Set("limit", strconv.Itoa(q.Limit))
	}
	if q.Generation > 0 {
		v.Set("generation", strconv.Itoa(q.Generation))
	}
	if q.MinGeneration > 0 {
		v.Set("min_generation", strconv.Itoa(q.MinGeneration))
	}
	path := "/v1/projects/" + url.PathEscape(project) + "/estimates"
	if len(v) > 0 {
		path += "?" + v.Encode()
	}
	var hdr http.Header
	if q.IfNotGeneration > 0 {
		hdr = http.Header{"If-None-Match": {`"` + strconv.Itoa(q.IfNotGeneration) + `"`}}
	}
	var out api.EstimatesResponse
	if q.Limit > 0 {
		out.Estimates = make([]api.Estimate, 0, min(q.Limit, maxPresize))
	}
	if err := c.do(ctx, http.MethodGet, path, hdr, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// maxPresize caps the estimates slice Estimates allocates up front for a
// page, so a huge Limit cannot request unbounded memory before the
// server has sent anything.
const maxPresize = 1024

// AllEstimates walks the estimates pagination to completion, fetching
// pageSize estimates per request (0 = one unpaginated request), and
// returns the merged result. q selects the first page (its Cursor and
// Limit are ignored); later pages follow NextCursor, whose embedded
// generation pins the whole walk to the first page's model state — the
// result is generation-coherent by construction, with no retries, however
// fast answers land mid-walk. A walk that outlives the server's retention
// window fails with api.CodeGenerationGone; restart it from the latest
// generation.
func (c *Client) AllEstimates(ctx context.Context, project string, pageSize int, q EstimatesQuery) (*api.EstimatesResponse, error) {
	q.Cursor, q.Limit = "", pageSize
	out, err := c.Estimates(ctx, project, q)
	if err != nil {
		return nil, err
	}
	for out.NextCursor != "" {
		page, err := c.Estimates(ctx, project, EstimatesQuery{Cursor: out.NextCursor, Limit: pageSize})
		if err != nil {
			return nil, err
		}
		out.Estimates = append(out.Estimates, page.Estimates...)
		out.NextCursor = page.NextCursor
	}
	return out, nil
}

// Watch issues one long-poll for a generation bump past `after` (pass the
// last generation you have seen; 0 catches up to the first publish).
// It returns the next event, or (nil, nil) when the server's timeout
// elapsed with no publish — just call it again. timeout <= 0 uses the
// server default (30s). The wait is bounded client-side by a context
// deadline with headroom over the server timeout; any Timeout configured
// on the underlying *http.Client is ignored here (it would kill parked
// polls by design).
func (c *Client) Watch(ctx context.Context, project string, after int, timeout time.Duration) (*api.WatchEvent, error) {
	v := url.Values{}
	if after > 0 {
		v.Set("after", strconv.Itoa(after))
	}
	if timeout > 0 {
		v.Set("timeout", strconv.Itoa(int((timeout+time.Second-1)/time.Second)))
	} else {
		timeout = 30 * time.Second // mirror the server default for the client-side bound
	}
	ctx, cancel := context.WithTimeout(ctx, timeout+5*time.Second)
	defer cancel()
	path := "/v1/projects/" + url.PathEscape(project) + "/watch"
	if len(v) > 0 {
		path += "?" + v.Encode()
	}
	base := c.base
	for follows := 0; ; follows++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
		if err != nil {
			return nil, err
		}
		resp, err := c.streamHC().Do(req)
		if err != nil {
			return nil, err
		}
		switch {
		case resp.StatusCode == http.StatusNoContent:
			resp.Body.Close()
			return nil, nil
		case resp.StatusCode >= 300:
			err := decodeErr(resp)
			resp.Body.Close()
			var ae *APIError
			if errors.As(err, &ae) && ae.Code == api.CodeNotHome && ae.Home != "" && follows < maxHomeFollows {
				base = trimSlash(ae.Home)
				continue
			}
			return nil, err
		}
		var ev api.WatchEvent
		decErr := json.NewDecoder(resp.Body).Decode(&ev)
		resp.Body.Close()
		if decErr != nil {
			return nil, decErr
		}
		return &ev, nil
	}
}

// WatchStream opens the SSE variant of /watch and streams generation
// bumps until ctx is cancelled, the server shuts down, or the connection
// drops. The events channel closes when the stream ends; the error
// channel then yields exactly one value — nil for a clean end (server
// shutdown), the cause otherwise. Slow consumers see intermediate bumps
// coalesced into a latest event with Coalesced set, exactly like the
// server-side watcher buffer.
func (c *Client) WatchStream(ctx context.Context, project string, after int) (<-chan api.WatchEvent, <-chan error) {
	events := make(chan api.WatchEvent)
	errc := make(chan error, 1)
	go func() {
		defer close(events)
		errc <- c.watchStream(ctx, project, after, events)
	}()
	return events, errc
}

func (c *Client) watchStream(ctx context.Context, project string, after int, events chan<- api.WatchEvent) error {
	v := url.Values{}
	if after > 0 {
		v.Set("after", strconv.Itoa(after))
	}
	path := "/v1/projects/" + url.PathEscape(project) + "/watch"
	if len(v) > 0 {
		path += "?" + v.Encode()
	}
	base := c.base
	var resp *http.Response
	for follows := 0; ; follows++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
		if err != nil {
			return err
		}
		req.Header.Set("Accept", "text/event-stream")
		resp, err = c.streamHC().Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		if resp.StatusCode >= 300 {
			err := decodeErr(resp)
			resp.Body.Close()
			var ae *APIError
			if errors.As(err, &ae) && ae.Code == api.CodeNotHome && ae.Home != "" && follows < maxHomeFollows {
				base = trimSlash(ae.Home)
				continue
			}
			return err
		}
		break
	}
	defer resp.Body.Close()
	// Minimal SSE reader: collect data: lines, dispatch on blank line.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " ")...)
		case line == "" && len(data) > 0:
			var ev api.WatchEvent
			if err := json.Unmarshal(data, &ev); err != nil {
				return fmt.Errorf("tcrowd: bad watch event: %w", err)
			}
			data = data[:0]
			select {
			case events <- ev:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		// event:/": keepalive" lines need no handling — the stream's only
		// event type is api.WatchEventGeneration.
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return sc.Err() // nil on a clean server-side end of stream
}

// Stats fetches a project's collection progress.
func (c *Client) Stats(ctx context.Context, project string) (*api.StatsResponse, error) {
	var out api.StatsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/projects/"+url.PathEscape(project)+"/stats", nil, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Workers fetches a project's worker-reputation roster: one row per
// observed worker with its defense state ("active", "watched",
// "quarantined", "banned"), reputation score and current inference
// weight. Defense reports whether the project runs the reputation engine
// at all; with it off the list is empty.
func (c *Client) Workers(ctx context.Context, project string) (*api.WorkersResponse, error) {
	var out api.WorkersResponse
	if err := c.do(ctx, http.MethodGet, "/v1/projects/"+url.PathEscape(project)+"/workers", nil, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// IsWorkerBanned reports whether err is the server's 403 worker_banned
// rejection — the submitting (or task-requesting) worker was auto-banned
// by the project's reputation engine. Bans are permanent, so the right
// client reaction is to stop retrying on that worker's behalf. Works on
// both the single-answer error and per-item codes inside a
// batch_rejected envelope.
func IsWorkerBanned(err error) bool {
	var ae *APIError
	if !errors.As(err, &ae) {
		return false
	}
	if ae.Code == api.CodeWorkerBanned {
		return true
	}
	for _, it := range ae.Items {
		if it.Code == api.CodeWorkerBanned {
			return true
		}
	}
	return false
}

// ShardStats fetches the server's shard-scheduler metrics.
func (c *Client) ShardStats(ctx context.Context) (*api.ShardStatsResponse, error) {
	var out api.ShardStatsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
