// Package cluster takes the shard ring out of the process: a static
// member set (the -peers flag, identical on every node) places every
// project on a home node via consistent hashing (internal/cluster/member,
// reusing shard.Ring), and each node's edge either serves a request
// locally or forwards it to the home transparently, so clients see one
// logical service. The typed 421 not_home envelope, which the SDK follows
// automatically, is only the fallback: for a request that was already
// forwarded once (peer lists disagree), for a failed hop, and for a
// follower's strong read.
//
// Writes always land on the home node. Reads scale out: every published
// generation streams from the home to all peers on one ordered stream per
// peer (a drop-to-latest shipper off the platform's publish hook, which
// also carries replica removals), and followers serve the whole
// pinned-read surface — ?generation=/?cursor= re-reads, ETag/If-None-Match
// 304s, watch long-poll and SSE — from replicated generations. Each post
// also carries the home's live WAL, which the follower keeps as an exact
// mirror; handoff pushes it to a new home, which replays it through the
// ordinary crash recovery path, so a project's history moves with it.
//
//tcrowd:lockorder peerShipper.sendMu < peerShipper.mu
package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"tcrowd/internal/cluster/member"
	"tcrowd/internal/platform"
)

// hopHeader marks a request already forwarded once by a peer's edge. A
// hopped request is never forwarded again: if the receiving node is not
// the home either (peer lists disagree mid-rollout), it answers 421
// not_home instead of bouncing the request around the ring.
const hopHeader = "X-Tcrowd-Forwarded"

// homeHeader carries the sending home node's base URL on internal
// replication requests, so followers learn where to send clients.
const homeHeader = "X-Tcrowd-Home"

// RouteMode says what the edge does with a request whose home is another
// node. It has one value, RouteForward.
type RouteMode int

// RouteForward proxies the request to the home node transparently:
// clients see one logical service whatever node they talk to.
const RouteForward RouteMode = 0

// replicaReadable is the request suffix set a follower serves locally
// from replicated generations; everything else routes to the home node.
// tasks and workers are deliberately absent: assignment and reputation
// live with the home's answer log.
var replicaReadable = map[string]bool{
	"estimates": true,
	"watch":     true,
	"stats":     true,
}

// Options configures a cluster node.
type Options struct {
	// Members is the parsed -peers set; nil is rejected (run without a
	// Node at all for single-node serving).
	Members *member.Set
	// Platform is the local data plane.
	Platform *platform.Platform
	// Local is the local /v1 handler (the platform server, rate limiter
	// and all) requests are delegated to when this node serves them.
	Local http.Handler
	// Mode is the routing behaviour for non-home requests; RouteForward,
	// the zero value, is the only one.
	Mode RouteMode
	// Client overrides the peer HTTP client (tests). The default has no
	// overall timeout — forwarded watch requests are long-polls — and
	// per-call deadlines guard the internal replication requests instead.
	Client *http.Client
}

// Node is one cluster member's serving edge: an http.Handler wrapping the
// local /v1 surface with ring routing, plus the internal replication API
// and the per-peer generation shippers.
type Node struct {
	set    *member.Set
	p      *platform.Platform
	local  http.Handler
	client *http.Client
	mux    *http.ServeMux

	// shippers fan published generations out, one per peer (immutable
	// after New).
	shippers []*peerShipper

	stop    chan struct{}
	closing sync.Once
	wg      sync.WaitGroup
}

// New builds the node, installs the platform publish hook, and starts the
// per-peer shippers. Call Close to stop them.
func New(opts Options) (*Node, error) {
	if opts.Members == nil {
		return nil, errors.New("cluster: Options.Members is required")
	}
	if opts.Platform == nil || opts.Local == nil {
		return nil, errors.New("cluster: Options.Platform and Options.Local are required")
	}
	n := &Node{
		set:    opts.Members,
		p:      opts.Platform,
		local:  opts.Local,
		client: opts.Client,
		mux:    http.NewServeMux(),
		stop:   make(chan struct{}),
	}
	if n.client == nil {
		n.client = &http.Client{}
	}
	n.registerInternalRoutes()
	for _, peer := range n.set.Peers() {
		s := newPeerShipper(n.set.Self().Addr, peer.Addr, n.client, n.p)
		n.shippers = append(n.shippers, s)
		n.wg.Add(1)
		go func() { defer n.wg.Done(); s.run(n.stop) }()
	}
	n.p.SetPublishHook(n.onPublish)
	return n, nil
}

// Close detaches the publish hook and stops the shippers and any
// in-flight rebalance loop. Queued generations not yet shipped are
// dropped — the project's next publish ships its latest state and whole
// live WAL again. Idempotent: shutdown paths (signal handler, defer, test
// cleanup) may race.
func (n *Node) Close() {
	n.closing.Do(func() {
		n.p.SetPublishHook(nil)
		close(n.stop)
	})
	n.wg.Wait()
}

// ServeHTTP implements http.Handler: internal routes first, then the
// ring-routed public surface.
func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/v1/internal/") {
		n.mux.ServeHTTP(w, r)
		return
	}
	n.route(w, r)
}

// splitProjectPath extracts the project segment (and the suffix after it)
// from a /v1/projects/{id}[/rest] path.
func splitProjectPath(p string) (id, rest string, ok bool) {
	const pre = "/v1/projects/"
	if !strings.HasPrefix(p, pre) {
		return "", "", false
	}
	seg, rest, _ := strings.Cut(p[len(pre):], "/")
	if seg == "" {
		return "", "", false
	}
	if unesc, err := url.PathUnescape(seg); err == nil {
		seg = unesc
	}
	return seg, rest, true
}

// route is the cluster edge: pick the home node off the ring and serve
// locally, serve from the replica, or forward to the home.
func (n *Node) route(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && (r.URL.Path == "/v1/projects" || r.URL.Path == "/v1/projects/") {
		n.routeCreate(w, r)
		return
	}
	id, rest, ok := splitProjectPath(r.URL.Path)
	if !ok {
		// Non-project surface (project listing, /v1/stats): every node
		// answers for itself.
		n.local.ServeHTTP(w, r)
		return
	}
	home := n.set.HomeOf(id)
	if home.ID == n.set.Self().ID {
		n.serveAsHome(w, r, id)
		return
	}
	// Replica reads serve locally once the project has replicated here;
	// the platform's follower guards and replica_stale/not_home errors
	// handle the rest of the surface.
	if r.Method == http.MethodGet && replicaReadable[rest] && n.hasLocal(id) {
		n.local.ServeHTTP(w, r)
		return
	}
	if r.Header.Get(hopHeader) != "" {
		// Already forwarded once — peer lists disagree. Stop the loop and
		// hand the client the address this node believes in.
		platform.WriteError(w, &platform.NotHomeError{Project: id, Home: home.Addr})
		return
	}
	n.forward(w, r, id, home, nil)
}

// routeCreate routes POST /v1/projects by peeking the project ID out of
// the body: creates are writes and must land on the new project's home.
func (n *Node) routeCreate(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		platform.WriteError(w, fmt.Errorf("cluster: reading request body: %w", err))
		return
	}
	var req struct {
		ID string `json:"id"`
	}
	// A body the peek cannot decode still goes to a validator: serve it
	// locally and let the platform emit its usual 400.
	_ = json.Unmarshal(body, &req)
	r.Body = io.NopCloser(bytes.NewReader(body))
	if req.ID == "" {
		n.local.ServeHTTP(w, r)
		return
	}
	home := n.set.HomeOf(req.ID)
	if home.ID == n.set.Self().ID {
		n.local.ServeHTTP(w, r)
		return
	}
	if r.Header.Get(hopHeader) != "" {
		platform.WriteError(w, &platform.NotHomeError{Project: req.ID, Home: home.Addr})
		return
	}
	n.forward(w, r, req.ID, home, body)
}

// hasLocal reports whether the local platform holds the project (home or
// follower).
func (n *Node) hasLocal(id string) bool {
	_, err := n.p.Project(id)
	return err == nil
}

// serveAsHome serves a request this node owns, fanning project deletions
// out to the peers' replicas after a successful local delete.
func (n *Node) serveAsHome(w http.ResponseWriter, r *http.Request, id string) {
	if r.Method == http.MethodDelete {
		sw := &statusWriter{ResponseWriter: w}
		n.local.ServeHTTP(sw, r)
		if sw.status >= 200 && sw.status < 300 {
			n.broadcastRemove(id)
		}
		return
	}
	n.local.ServeHTTP(w, r)
}

// statusWriter records the response status for post-serve decisions.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (s *statusWriter) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusWriter) Write(b []byte) (int, error) {
	if s.status == 0 {
		s.status = http.StatusOK
	}
	return s.ResponseWriter.Write(b)
}

// broadcastRemove tells every peer to drop its replica of a deleted
// project, through each peer's shipper (see peerShipper.remove).
// Best-effort: nothing resends a missed removal. A peer that was up keeps
// its stale replica; one that was down recovers its WAL mirror as a home
// project at restart, and its boot rebalance hands it back to the home.
func (n *Node) broadcastRemove(id string) {
	for _, s := range n.shippers {
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			s.remove(id)
		}()
	}
}

// internalTimeout bounds one internal replication request (generation
// apply, handoff push, replica removal). Generous: generation posts and
// handoff pushes carry whole WAL segments.
const internalTimeout = 30 * time.Second

// forward proxies the request to the home node and copies the response
// back VERBATIM — status, headers (Retry-After, ETag, Content-Type...)
// and body bytes, whatever the status. Error envelopes and backpressure
// hints must survive the hop untouched: the proxy is transport, not
// policy. The body is streamed with per-chunk flushes so forwarded watch
// streams (SSE, long-poll) deliver events as they happen. body, when
// non-nil, is the already-consumed request body.
func (n *Node) forward(w http.ResponseWriter, r *http.Request, id string, home member.Member, body []byte) {
	if body == nil && r.Body != nil {
		var err error
		if body, err = io.ReadAll(r.Body); err != nil {
			platform.WriteError(w, fmt.Errorf("cluster: reading request body: %w", err))
			return
		}
	}
	out, err := http.NewRequestWithContext(r.Context(), r.Method,
		home.Addr+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		platform.WriteError(w, fmt.Errorf("cluster: building forward request: %w", err))
		return
	}
	out.Header = r.Header.Clone()
	out.Header.Set(hopHeader, n.set.Self().ID)
	resp, err := n.client.Do(out)
	if err != nil {
		// The hop failed, but the client can still go direct: answer 421
		// with the home address instead of an opaque 502.
		platform.WriteError(w, &platform.NotHomeError{Project: id, Home: home.Addr})
		return
	}
	defer resp.Body.Close()
	hdr := w.Header()
	for k, vs := range resp.Header {
		hdr[k] = vs
	}
	w.WriteHeader(resp.StatusCode)
	flushCopy(w, resp.Body)
}

// flushCopy streams src to w, flushing after every chunk so proxied
// event streams are delivered promptly.
func flushCopy(w http.ResponseWriter, src io.Reader) {
	f, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		nr, err := src.Read(buf)
		if nr > 0 {
			if _, werr := w.Write(buf[:nr]); werr != nil {
				return
			}
			if f != nil {
				f.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}
