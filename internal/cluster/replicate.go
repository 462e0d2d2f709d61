package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"tcrowd/api"
	"tcrowd/internal/platform"
	"tcrowd/internal/wal"
)

// shipRetryDelay paces resends after a failed generation ship. Newer
// generations supersede queued ones, so a retry always sends the freshest
// state — the delay is just a breather, not a queue drain.
const shipRetryDelay = 250 * time.Millisecond

// onPublish is the platform publish hook: every generation published by a
// project homed here fans out to all peers. It only enqueues (the hook
// runs synchronously on the publishing shard worker); the per-peer
// shipper goroutines do the network work.
func (n *Node) onPublish(meta platform.ProjectMeta, res *platform.InferenceResult, ev api.WatchEvent) {
	if !n.set.IsHome(meta.ID) {
		// A publish racing a handoff: the new home will publish its own
		// generations, ours would only echo stale state around the ring.
		return
	}
	g := platform.BuildReplicatedGeneration(meta, res, ev)
	for _, s := range n.shippers {
		s.enqueue(&g)
	}
}

// peerShipper streams published generations to one peer with
// drop-to-latest semantics: per project only the newest unshipped
// generation is kept, so a slow or down peer costs bounded memory and
// recovers straight to the current state. Each post carries the project's
// whole live WAL, read at send time, so the answer history the skipped
// generations covered reaches the follower's mirror too.
type peerShipper struct {
	self   string // this node's base URL, sent as X-Tcrowd-Home
	peer   string // peer base URL
	client *http.Client
	p      *platform.Platform // source of the shipped WAL segments

	// sendMu spans taking a generation and sending it (see remove).
	sendMu sync.Mutex
	mu     sync.Mutex
	// queue holds the latest unshipped generation per project.
	//tcrowd:guardedby mu
	queue map[string]*platform.ReplicatedGeneration
	// wake nudges the run loop; capacity 1, send never blocks.
	wake chan struct{}
}

func newPeerShipper(selfAddr, peerAddr string, client *http.Client, p *platform.Platform) *peerShipper {
	return &peerShipper{
		self:   selfAddr,
		peer:   peerAddr,
		client: client,
		p:      p,
		queue:  make(map[string]*platform.ReplicatedGeneration),
		wake:   make(chan struct{}, 1),
	}
}

// enqueue records g as the project's latest pending generation and wakes
// the run loop.
func (s *peerShipper) enqueue(g *platform.ReplicatedGeneration) {
	s.put(g)
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// take pops the pending generation for the lexically smallest queued
// project (deterministic drain order), or nil when the queue is empty.
func (s *peerShipper) take() *platform.ReplicatedGeneration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == 0 {
		return nil
	}
	keys := make([]string, 0, len(s.queue))
	for k := range s.queue {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	g := s.queue[keys[0]]
	delete(s.queue, keys[0])
	return g
}

// put records g as the project's pending generation unless a newer one is
// queued (failed ships go back this way).
func (s *peerShipper) put(g *platform.ReplicatedGeneration) {
	s.mu.Lock()
	if cur, ok := s.queue[g.Project]; !ok || g.Generation > cur.Generation {
		s.queue[g.Project] = g
	}
	s.mu.Unlock()
}

// run drains the queue until stop closes.
func (s *peerShipper) run(stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		case <-s.wake:
		}
		for {
			s.sendMu.Lock()
			g := s.take()
			var err error
			if g != nil {
				if err = s.send(g); err != nil {
					s.put(g)
				}
			}
			s.sendMu.Unlock()
			if g == nil {
				break
			}
			if err != nil {
				select {
				case <-stop:
					return
				case <-time.After(shipRetryDelay):
				}
			}
		}
	}
}

// remove asks the peer to drop its replica of a deleted project. Holding
// sendMu orders it after the in-flight send, and it drops the generation
// still queued for the project, so nothing published before the delete
// can reach the peer after it. Best-effort, like a ship to a down peer.
func (s *peerShipper) remove(project string) {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	s.mu.Lock()
	delete(s.queue, project)
	s.mu.Unlock()
	req, err := http.NewRequest(http.MethodDelete, s.peer+"/v1/internal/projects/"+url.PathEscape(project), nil)
	if err == nil {
		_ = s.do(req)
	}
}

// send POSTs a copy of g carrying the project's live WAL segments (g is
// shared by every peer's shipper) to the peer's internal apply endpoint.
// A project deleted since the publish ships nothing.
func (s *peerShipper) send(g *platform.ReplicatedGeneration) error {
	out := *g
	segs, err := s.p.ShipWAL(g.Project)
	if errors.Is(err, platform.ErrNoProject) {
		return nil
	}
	out.WAL = segs
	body, err := json.Marshal(&out)
	if err != nil {
		return nil // unserialisable payloads cannot succeed later either
	}
	req, err := http.NewRequest(http.MethodPost,
		s.peer+"/v1/internal/projects/"+url.PathEscape(g.Project)+"/generations",
		bytes.NewReader(body))
	if err != nil {
		return nil
	}
	req.Header.Set("Content-Type", "application/json")
	return s.do(req)
}

// do issues one internal request to the peer. A 4xx is permanent for the
// payload (config mismatch, validation) and drops it; network errors and
// 5xx retry.
func (s *peerShipper) do(req *http.Request) error {
	req.Header.Set(homeHeader, s.self)
	ctx, cancel := context.WithTimeout(req.Context(), internalTimeout)
	defer cancel()
	resp, err := s.client.Do(req.WithContext(ctx))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode >= 500 {
		return errHTTPStatus(resp.StatusCode)
	}
	return nil
}

// errHTTPStatus wraps a retryable upstream status as an error.
type errHTTPStatus int

func (e errHTTPStatus) Error() string {
	return "cluster: peer answered HTTP " + http.StatusText(int(e))
}

// walShipEnvelope is the handoff push's wire format. Latest rides along
// so one round trip both moves the log and seeds the serving state.
type walShipEnvelope struct {
	Segments []wal.ShippedSegment           `json:"segments"`
	Latest   *platform.ReplicatedGeneration `json:"latest,omitempty"`
}
