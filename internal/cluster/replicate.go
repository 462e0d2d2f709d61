package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
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
// recovers straight to the current state. Follower-side WAL catch-up
// (scheduled after each apply) backfills the answer history the skipped
// generations carried.
type peerShipper struct {
	self   string // this node's base URL, sent as X-Tcrowd-Home
	peer   string // peer base URL
	client *http.Client

	// sendMu spans taking a generation and sending it (see remove).
	sendMu sync.Mutex
	mu     sync.Mutex
	// queue holds the latest unshipped generation per project.
	//tcrowd:guardedby mu
	queue map[string]*platform.ReplicatedGeneration
	// wake nudges the run loop; capacity 1, send never blocks.
	wake chan struct{}
}

func newPeerShipper(selfAddr, peerAddr string, client *http.Client) *peerShipper {
	return &peerShipper{
		self:   selfAddr,
		peer:   peerAddr,
		client: client,
		queue:  make(map[string]*platform.ReplicatedGeneration),
		wake:   make(chan struct{}, 1),
	}
}

// enqueue records g as the project's latest pending generation, replacing
// any older queued one.
func (s *peerShipper) enqueue(g *platform.ReplicatedGeneration) {
	s.mu.Lock()
	if cur, ok := s.queue[g.Project]; !ok || g.Generation > cur.Generation {
		s.queue[g.Project] = g
	}
	s.mu.Unlock()
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

// requeue puts a failed ship back unless a newer generation superseded it
// while the send was in flight.
func (s *peerShipper) requeue(g *platform.ReplicatedGeneration) {
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
					s.requeue(g)
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

// send POSTs one generation to the peer's internal apply endpoint.
func (s *peerShipper) send(g *platform.ReplicatedGeneration) error {
	body, err := json.Marshal(g)
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

// walShipEnvelope is the internal WAL endpoint's wire format, shared by
// the catch-up GET response and the handoff POST request. Latest rides
// along so one round trip both mirrors the log and seeds the serving
// state.
type walShipEnvelope struct {
	Segments []wal.ShippedSegment           `json:"segments"`
	Latest   *platform.ReplicatedGeneration `json:"latest,omitempty"`
}

// schedulePull kicks an async WAL catch-up pull for a follower project,
// deduplicating concurrent pulls per project. Called after every applied
// generation: the mirror trails the home's log by at most one publish.
func (n *Node) schedulePull(projectID, home string) {
	if home == "" {
		return
	}
	n.mu.Lock()
	if n.pulling[projectID] {
		n.mu.Unlock()
		return
	}
	n.pulling[projectID] = true
	epoch := n.epoch[projectID]
	n.mu.Unlock()
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.pullWAL(projectID, home, epoch)
		n.mu.Lock()
		n.pulling[projectID] = false
		n.mu.Unlock()
	}()
}

// pullWAL fetches the home's WAL tail from this node's watermark and lays
// it down as the local mirror. Best-effort: on any failure the next
// generation apply schedules another pull. A replica removal since the
// pull was scheduled wins: the fetch is dropped.
func (n *Node) pullWAL(projectID, home string, epoch uint64) {
	n.mu.Lock()
	from := n.walTop[projectID]
	n.mu.Unlock()
	if from < 1 {
		from = 1
	}
	req, err := http.NewRequest(http.MethodGet,
		home+"/v1/internal/projects/"+url.PathEscape(projectID)+"/wal?from="+strconv.Itoa(from), nil)
	if err != nil {
		return
	}
	resp, err := n.doInternal(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return
	}
	var env walShipEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return
	}
	n.removeMu.Lock()
	defer n.removeMu.Unlock()
	n.mu.Lock()
	removed := n.epoch[projectID] != epoch
	n.mu.Unlock()
	if removed {
		return
	}
	top, err := n.p.ReplicateWAL(projectID, env.Segments, home)
	if err != nil {
		return
	}
	if env.Latest != nil {
		// Cold catch-up: a follower created from the WAL mirror alone has
		// no serving state yet; the piggybacked latest generation seeds it.
		// Idempotent — stale generations drop.
		_ = n.p.ApplyReplicatedGeneration(env.Latest, home)
	}
	n.mu.Lock()
	// from == top refreshes the active segment each round; keep the
	// watermark at the highest mirrored index (the active segment keeps
	// growing, so it is re-fetched until the log rolls past it).
	if top > n.walTop[projectID] {
		n.walTop[projectID] = top
	}
	n.mu.Unlock()
}
