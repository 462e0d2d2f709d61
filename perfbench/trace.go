package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// reqHeader carries the benchmark's request id from the RoundTripper tap
// to the handler taps; the cluster edge copies request headers onto a
// forwarded request, so the id survives the hop.
const reqHeader = "X-Perfbench-Req"

// forwardedHeader is the header the cluster edge sets on a forwarded
// request.
const forwardedHeader = "X-Tcrowd-Forwarded"

// Span levels: an SDK call contains its round trips, a round trip
// contains the handler of the node it reached, and that handler contains
// the home node's handler when it forwarded the request.
const (
	levelSDK = iota
	levelRoundTrip
	levelEdge
	levelForwarded
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Node   string `json:"node,omitempty"`
	Level  int    `json:"level"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
	Status int    `json:"status,omitempty"`
	Err    bool   `json:"err,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	req   atomic.Uint64
	// frozen drops spans recorded after the timed phase (final checks).
	frozen bool
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) newReq() uint64 { return t.req.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	if !t.frozen {
		s.ID = int64(len(t.spans) + 1)
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// reset drops everything recorded so far (set-up traffic).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// record adds a span measured outside the timed phase (set-up, replays),
// which freeze does not stop.
func (t *tracer) record(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
}

// freeze stops recording at the end of the timed phase.
func (t *tracer) freeze() {
	t.mu.Lock()
	t.frozen = true
	t.mu.Unlock()
}

type reqKey struct{}

func withReq(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, reqKey{}, id)
}

// opOf classifies a public request path into an SDK operation kind, or an
// internal replication route.
func opOf(method, path string) string {
	switch {
	case strings.HasPrefix(path, "/v1/internal/"):
		if strings.HasSuffix(path, "/generations") && method == http.MethodPost {
			return "gen"
		}
		if strings.HasSuffix(path, "/wal") && method == http.MethodGet {
			return "wal"
		}
		return "internal"
	case strings.HasSuffix(path, "/answers"):
		return opSubmit
	case strings.HasSuffix(path, "/tasks"):
		return opTasks
	case strings.HasSuffix(path, "/estimates"):
		return opRead
	}
	return "other"
}

// rtTap is the client-side tap: one span per round trip, from handing the
// request to the transport until response headers, plus one from then
// until the SDK closes the response body (read and decode).
type rtTap struct {
	t    *tracer
	next http.RoundTripper
}

func (t *tracer) roundTripper(next http.RoundTripper) http.RoundTripper {
	return &rtTap{t: t, next: next}
}

func (rt *rtTap) RoundTrip(req *http.Request) (*http.Response, error) {
	id, _ := req.Context().Value(reqKey{}).(uint64)
	if id == 0 {
		return rt.next.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(reqHeader, strconv.FormatUint(id, 10))
	op := opOf(req.Method, req.URL.Path)
	start := rt.t.now()
	resp, err := rt.next.RoundTrip(req)
	end := rt.t.now()
	s := span{Name: "rt." + op, Req: id, Level: levelRoundTrip, Start: start, End: end, Err: err != nil}
	if resp != nil {
		s.Status = resp.StatusCode
		resp.Body = &timedBody{rc: resp.Body, t: rt.t, id: id, op: op, start: end}
	}
	rt.t.add(s)
	return resp, err
}

// timedBody records when the SDK closed a response body. The SDK closes
// it once it has decoded the response; the last Read, which can return
// io.EOF with the final bytes, comes before that decode ends.
type timedBody struct {
	rc    io.ReadCloser
	t     *tracer
	id    uint64
	op    string
	start int64
	n     int64
	done  bool
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *timedBody) Close() error {
	if !b.done {
		b.done = true
		b.t.add(span{Name: "body." + b.op, Req: b.id, Level: levelRoundTrip, Start: b.start, End: b.t.now(), Bytes: b.n})
	}
	return b.rc.Close()
}

// edgeTap is the server-side tap around a node's handler.
type edgeTap struct {
	t    *tracer
	node string
	next http.Handler
}

func (t *tracer) edge(node string, next http.Handler) http.Handler {
	return &edgeTap{t: t, node: node, next: next}
}

func (e *edgeTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
	op := opOf(r.Method, r.URL.Path)
	level := levelEdge
	if r.Header.Get(forwardedHeader) != "" {
		level = levelForwarded
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	start := e.t.now()
	e.next.ServeHTTP(sw, r)
	s := span{Name: "edge." + op, Node: e.node, Req: id, Level: level, Start: start, End: e.t.now(), Status: sw.status, Bytes: sw.n}
	if op == "gen" {
		s.Bytes = r.ContentLength
	}
	e.t.add(s)
}

// statusWriter records a response's status and body size.
type statusWriter struct {
	http.ResponseWriter
	status int
	n      int64
	wrote  bool
}

func (s *statusWriter) WriteHeader(code int) {
	if !s.wrote {
		s.status, s.wrote = code, true
	}
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusWriter) Write(b []byte) (int, error) {
	s.wrote = true
	n, err := s.ResponseWriter.Write(b)
	s.n += int64(n)
	return n, err
}

func (s *statusWriter) Flush() {
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *statusWriter) Unwrap() http.ResponseWriter { return s.ResponseWriter }

// link assigns every span of a request its parent — the latest-starting
// span one level up whose interval contains the child's start — and its
// self time: duration minus the part of it the children's intervals
// cover. A handler may still be writing a large body after the client has
// its response headers, so a child can outlast its parent; only the
// overlap is subtracted. Spans without a request id are roots.
func (t *tracer) link() {
	byReq := map[uint64][]int{}
	for i, s := range t.spans {
		t.spans[i].Self = s.dur()
		if s.Req != 0 {
			byReq[s.Req] = append(byReq[s.Req], i)
		}
	}
	for _, idx := range byReq {
		for _, ci := range idx {
			c := &t.spans[ci]
			if c.Level == levelSDK || strings.HasPrefix(c.Name, "body.") {
				continue
			}
			best := -1
			for _, pi := range idx {
				p := t.spans[pi]
				if p.Level != c.Level-1 || strings.HasPrefix(p.Name, "body.") || p.Start > c.Start || p.End < c.Start {
					continue
				}
				if best < 0 || p.Start > t.spans[best].Start {
					best = pi
				}
			}
			if best >= 0 {
				p := &t.spans[best]
				c.Parent = p.ID
				p.Self -= overlap(*p, *c)
			}
		}
	}
}

// overlap is the length of the intersection of two spans' intervals.
func overlap(a, b span) int64 {
	return max(0, min(a.End, b.End)-max(a.Start, b.Start))
}

// write writes the spans, one JSON object a line, to a file under the
// output directory, returning its path.
func (t *tracer) write(cfg config) (string, error) {
	dir := filepath.Join(cfg.out, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// callParts is one SDK call cut into pieces of its timeline, each measured
// by its own tap: pre (call start to the first round trip), transport
// (round trip time not overlapped by the handler), handler (the serving
// node's handler; for a forwarded request the home node's), forward (the
// first node's handler time around the hop) and post (the timed response
// body of the last round trip, read and decoded by the SDK: from the later
// of response headers and handler end, until the SDK closed the body).
// A part whose tap did not fire reads 0, so the parts fall short of the
// SDK total; so does time after the body is closed and between retried
// round trips.
type callParts struct {
	op                      string
	total, pre, post        float64 // µs
	transport, handler, fwd float64 // µs, summed over the call's round trips
	leafHandlers            []float64
	roundTrips, forwarded   int
	bytes                   int64
}

// calls decomposes every traced SDK call. The tracer must be linked.
func (t *tracer) calls() []callParts {
	byReq := map[uint64][]span{}
	for _, s := range t.spans {
		if s.Req != 0 {
			byReq[s.Req] = append(byReq[s.Req], s)
		}
	}
	var out []callParts
	for _, ss := range byReq {
		var sdk *span
		var rts, bodies []span
		for i := range ss {
			switch s := ss[i]; {
			case s.Level == levelSDK:
				sdk = &ss[i]
			case s.Level == levelRoundTrip && strings.HasPrefix(s.Name, "rt."):
				rts = append(rts, s)
			case strings.HasPrefix(s.Name, "body."):
				bodies = append(bodies, s)
			}
		}
		if sdk == nil || len(rts) == 0 {
			continue
		}
		sort.Slice(rts, func(i, j int) bool { return rts[i].Start < rts[j].Start })
		c := callParts{
			op:         strings.TrimPrefix(sdk.Name, "sdk."),
			total:      float64(sdk.dur()) / 1e3,
			pre:        float64(rts[0].Start-sdk.Start) / 1e3,
			roundTrips: len(rts),
		}
		last := rts[len(rts)-1]
		bodyFrom := last.End
		for _, rt := range rts {
			c.transport += float64(rt.Self) / 1e3
			for _, e := range ss {
				if e.Parent != rt.ID || e.Level != levelEdge {
					continue
				}
				leaf := e
				for _, f := range ss {
					if f.Parent == e.ID && f.Level == levelForwarded {
						leaf = f
						c.forwarded++
					}
				}
				c.handler += float64(leaf.dur()) / 1e3
				c.fwd += float64(e.dur()-leaf.dur()) / 1e3
				c.leafHandlers = append(c.leafHandlers, float64(leaf.dur())/1e3)
				c.bytes += leaf.Bytes
				if rt.ID == last.ID {
					bodyFrom = max(bodyFrom, e.End)
				}
			}
		}
		for _, b := range bodies {
			if b.Start == last.End {
				c.post = float64(max(0, b.End-bodyFrom)) / 1e3
			}
		}
		out = append(out, c)
	}
	return out
}
