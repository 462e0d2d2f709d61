package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tcrowd/api"
	"tcrowd/client"
	"tcrowd/internal/cluster/member"
	"tcrowd/internal/platform"
	"tcrowd/internal/wal"
)

// switchable lets a test swap the handler behind a live listener — the
// handoff test re-creates a Node with a new member spec mid-test.
type switchable struct{ h atomic.Pointer[http.Handler] }

func (s *switchable) set(h http.Handler) { s.h.Store(&h) }

func (s *switchable) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load()).ServeHTTP(w, r)
}

type testNode struct {
	id    string
	addr  string
	set   *member.Set
	p     *platform.Platform
	opts  platform.Options
	local *platform.Server
	node  *Node
	sw    *switchable
	srv   *http.Server
}

type testCluster struct {
	spec  string
	nodes []*testNode
}

// nodeConfig adjusts node i's platform and cluster options before
// startCluster boots it.
type nodeConfig func(i int, popts *platform.Options, copts *Options)

// startCluster boots n real nodes on loopback listeners: each one a full
// platform (durable when durable is set) wrapped in a cluster Node, all
// sharing one -peers spec. Cleanup tears everything down.
func startCluster(t *testing.T, n int, durable bool, configs ...nodeConfig) *testCluster {
	t.Helper()
	lns := make([]net.Listener, n)
	parts := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		parts[i] = fmt.Sprintf("n%d=http://%s", i+1, ln.Addr())
	}
	tc := &testCluster{spec: strings.Join(parts, ",")}
	for i, ln := range lns {
		id := fmt.Sprintf("n%d", i+1)
		set, err := member.Parse(id, tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		tn := &testNode{id: id, addr: set.Self().Addr, set: set}
		tn.opts = platform.Options{Workers: 2}
		if durable {
			tn.opts.WAL = &platform.WALOptions{Dir: t.TempDir(), Policy: wal.SyncAlways}
		}
		copts := Options{Members: set}
		for _, c := range configs {
			c(i, &tn.opts, &copts)
		}
		if durable {
			tn.p, _, err = platform.Recover(1, tn.opts)
			if err != nil {
				t.Fatal(err)
			}
		} else {
			tn.p = platform.NewWithOptions(1, tn.opts)
		}
		tn.local = platform.NewServer(tn.p)
		copts.Platform, copts.Local = tn.p, tn.local
		tn.node, err = New(copts)
		if err != nil {
			t.Fatal(err)
		}
		tn.sw = &switchable{}
		tn.sw.set(tn.node)
		tn.srv = &http.Server{Handler: tn.sw}
		go tn.srv.Serve(ln)
		tc.nodes = append(tc.nodes, tn)
	}
	t.Cleanup(func() {
		for _, tn := range tc.nodes {
			tn.srv.Close()
			tn.node.Close()
			tn.p.Close()
		}
	})
	return tc
}

// projectHomedOn finds a project id the shared ring places on the given
// node.
func projectHomedOn(t *testing.T, set *member.Set, nodeID string) string {
	t.Helper()
	return projectsHomedOn(t, set, nodeID, 1)[0]
}

// projectsHomedOn finds k distinct project ids the shared ring places on
// the given node.
func projectsHomedOn(t *testing.T, set *member.Set, nodeID string, k int) []string {
	t.Helper()
	var ids []string
	for i := 0; i < 10_000 && len(ids) < k; i++ {
		if id := fmt.Sprintf("proj-%d", i); set.HomeOf(id).ID == nodeID {
			ids = append(ids, id)
		}
	}
	if len(ids) < k {
		t.Fatalf("only %d project ids hash to %s", len(ids), nodeID)
	}
	return ids
}

// waitShipped waits until every shipper of n has an empty queue and no
// send in flight: each generation published before the call has been
// applied by its peer (mirror write included, as the follower answers
// after it) or dropped for good.
func waitShipped(t *testing.T, n *Node) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for _, s := range n.shippers {
		for {
			s.sendMu.Lock()
			s.mu.Lock()
			idle := len(s.queue) == 0
			s.mu.Unlock()
			s.sendMu.Unlock()
			if idle {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("shipper to %s never drained", s.peer)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// rawGet issues a plain GET against a specific node, returning status,
// headers and body — no SDK smarts, so it observes exactly what the node
// sends.
func rawGet(t *testing.T, url string, hdr http.Header) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

func clusterSchema() api.Schema {
	return api.Schema{
		Key: "item",
		Columns: []api.Column{
			{Name: "category", Type: "categorical", Labels: []string{"book", "movie", "game"}},
			{Name: "price", Type: "continuous", Min: 0, Max: 500},
		},
	}
}

// waitGeneration polls one node's estimates endpoint until it serves at
// least generation gen, returning the response.
func waitGeneration(t *testing.T, addr, project string, gen int) *api.EstimatesResponse {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		status, _, body := rawGet(t, addr+"/v1/projects/"+project+"/estimates", nil)
		if status == http.StatusOK {
			var est api.EstimatesResponse
			if err := json.Unmarshal(body, &est); err == nil && est.Generation >= gen {
				return &est
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never served %s generation %d (last status %d)", addr, project, gen, status)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestClusterReplicatedReads is the acceptance e2e: a 3-node cluster
// where writes through ANY node land on the project's home, every
// published generation replicates to both followers, and the followers
// serve the same generation number with byte-identical estimate pages,
// correct stats, and working conditional reads.
func TestClusterReplicatedReads(t *testing.T) {
	tc := startCluster(t, 3, true)
	set := tc.nodes[0].set
	project := projectHomedOn(t, set, "n2")
	home := tc.nodes[1]

	// Create through a NON-home node: the edge must route it by the ID in
	// the body.
	c1 := client.New(tc.nodes[0].addr)
	ctx := context.Background()
	if err := c1.CreateProject(ctx, api.CreateProjectRequest{ID: project, Schema: clusterSchema(), Rows: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := home.p.Project(project); err != nil {
		t.Fatalf("create through n1 did not land on home n2: %v", err)
	}

	// Submit through the third node; the strong read pins the resulting
	// generation.
	c3 := client.New(tc.nodes[2].addr)
	if _, err := c3.SubmitAnswers(ctx, project, []api.Answer{
		api.LabelAnswer("w1", 0, "category", "movie"),
		api.LabelAnswer("w2", 0, "category", "movie"),
		api.NumberAnswer("w1", 1, "price", 100),
	}); err != nil {
		t.Fatal(err)
	}
	fresh, err := c3.Estimates(ctx, project, client.EstimatesQuery{MinGeneration: api.GenerationFresh})
	if err != nil {
		t.Fatal(err)
	}
	gen := fresh.Generation

	// Both followers converge to the same generation, and the pinned page
	// is byte-identical on all three nodes.
	for _, tn := range tc.nodes {
		waitGeneration(t, tn.addr, project, gen)
	}
	var pinned [][]byte
	for _, tn := range tc.nodes {
		status, hdr, body := rawGet(t, tn.addr+"/v1/projects/"+project+"/estimates?generation="+fmt.Sprint(gen), nil)
		if status != http.StatusOK {
			t.Fatalf("%s pinned read: %d %s", tn.id, status, body)
		}
		if etag := hdr.Get("ETag"); etag != fmt.Sprintf(`"%d"`, gen) {
			t.Fatalf("%s ETag = %q", tn.id, etag)
		}
		pinned = append(pinned, body)
	}
	if !bytes.Equal(pinned[0], pinned[1]) || !bytes.Equal(pinned[1], pinned[2]) {
		t.Fatalf("estimate pages differ across nodes:\nn1: %s\nn2: %s\nn3: %s", pinned[0], pinned[1], pinned[2])
	}

	// Conditional read against a FOLLOWER: 304 without a body.
	status, _, body := rawGet(t, tc.nodes[0].addr+"/v1/projects/"+project+"/estimates",
		http.Header{"If-None-Match": {fmt.Sprintf(`"%d"`, gen)}})
	if status != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("follower conditional read: %d %q", status, body)
	}

	// Stats served by a follower agree with the home's answer count.
	st, err := c1.Stats(ctx, project)
	if err != nil || st.Answers != 3 {
		t.Fatalf("follower stats = %+v, %v", st, err)
	}

	// A follower watch long-poll delivers the NEXT bump, served from the
	// follower's own hub (no proxying: the project exists locally).
	type watchResult struct {
		ev  *api.WatchEvent
		err error
	}
	watchc := make(chan watchResult, 1)
	go func() {
		ev, err := c1.Watch(ctx, project, gen, 10*time.Second)
		watchc <- watchResult{ev, err}
	}()
	time.Sleep(100 * time.Millisecond) // park the poll before publishing
	if _, err := c3.SubmitAnswers(ctx, project, []api.Answer{
		api.LabelAnswer("w3", 0, "category", "movie"),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c3.Estimates(ctx, project, client.EstimatesQuery{MinGeneration: api.GenerationFresh}); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-watchc:
		if r.err != nil || r.ev == nil || r.ev.Generation <= gen {
			t.Fatalf("replica watch = %+v, %v", r.ev, r.err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("replica watch never delivered the bump")
	}
}

// TestClusterHopGuardAndSDKViaNonHome pins the 421 fallback and the
// forward path: a request already forwarded once that reaches a non-home
// node (peer lists disagree) answers a typed not_home envelope carrying
// the home's address instead of hopping again, and an SDK pointed at a
// non-home node works end to end, every write landing on the home.
func TestClusterHopGuardAndSDKViaNonHome(t *testing.T) {
	tc := startCluster(t, 3, false)
	set := tc.nodes[0].set
	project := projectHomedOn(t, set, "n3")
	homeAddr := tc.nodes[2].addr
	ctx := context.Background()

	// A create that already took one hop: 421 + envelope with code and home.
	body, _ := json.Marshal(api.CreateProjectRequest{ID: project, Schema: clusterSchema(), Rows: 4})
	req, err := http.NewRequest(http.MethodPost, tc.nodes[0].addr+"/v1/projects", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(hopHeader, "n2")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("hopped create at non-home: %d %s", resp.StatusCode, raw)
	}
	var env api.ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	if env.Err.Code != api.CodeNotHome || env.Err.Home != homeAddr || env.Err.Retryable {
		t.Fatalf("not_home envelope = %+v, want code %s home %s", env.Err, api.CodeNotHome, homeAddr)
	}
	if _, err := tc.nodes[2].p.Project(project); err == nil {
		t.Fatal("hopped create reached the home")
	}

	// The SDK pointed at the SAME non-home node succeeds end to end: the
	// edge forwards every call to the home.
	c := client.New(tc.nodes[0].addr)
	if err := c.CreateProject(ctx, api.CreateProjectRequest{ID: project, Schema: clusterSchema(), Rows: 4}); err != nil {
		t.Fatalf("SDK create via non-home: %v", err)
	}
	if _, err := c.SubmitAnswers(ctx, project, []api.Answer{
		api.LabelAnswer("w1", 0, "category", "book"),
	}); err != nil {
		t.Fatalf("SDK submit via non-home: %v", err)
	}
	if _, err := c.Tasks(ctx, project, "w9", 2); err != nil {
		t.Fatalf("SDK tasks via non-home: %v", err)
	}
	st, err := tc.nodes[2].p.Stats(project)
	if err != nil {
		t.Fatalf("project did not land on home: %v", err)
	}
	if st.Answers != 1 {
		t.Fatalf("home holds %d answers, want 1", st.Answers)
	}
}

// TestClusterDeleteFanout pins that deleting a project at its home drops
// the replicas on every peer.
func TestClusterDeleteFanout(t *testing.T) {
	tc := startCluster(t, 3, true)
	set := tc.nodes[0].set
	project := projectHomedOn(t, set, "n1")
	ctx := context.Background()

	c := client.New(tc.nodes[1].addr)
	if err := c.CreateProject(ctx, api.CreateProjectRequest{ID: project, Schema: clusterSchema(), Rows: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitAnswers(ctx, project, []api.Answer{api.LabelAnswer("w1", 0, "category", "game")}); err != nil {
		t.Fatal(err)
	}
	fresh, err := c.Estimates(ctx, project, client.EstimatesQuery{MinGeneration: api.GenerationFresh})
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range tc.nodes {
		waitGeneration(t, tn.addr, project, fresh.Generation)
	}

	if err := c.DeleteProject(ctx, project); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for _, tn := range tc.nodes {
		for {
			_, err := tn.p.Project(project)
			if err != nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s still holds deleted project %s", tn.id, project)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}

// TestShipperRemoveDropsQueuedGeneration pins the home side of a delete:
// a replica removal waits out the send in flight and drops the generation
// still queued for the project, so nothing published before the delete
// reaches the peer after it.
func TestShipperRemoveDropsQueuedGeneration(t *testing.T) {
	var mu sync.Mutex
	var got []string
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		got = append(got, r.Method+" "+r.URL.Path)
		mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	}))
	defer peer.Close()
	s := newPeerShipper("http://self", peer.URL, peer.Client(), nil)
	s.enqueue(&platform.ReplicatedGeneration{Project: "p", InferenceResult: platform.InferenceResult{Generation: 3}})
	s.enqueue(&platform.ReplicatedGeneration{Project: "q", InferenceResult: platform.InferenceResult{Generation: 1}})

	s.sendMu.Lock() // a send in flight
	removed := make(chan struct{})
	go func() {
		s.remove("p")
		close(removed)
	}()
	select {
	case <-removed:
		t.Fatal("removal overtook the send in flight")
	case <-time.After(50 * time.Millisecond):
	}
	s.sendMu.Unlock()
	<-removed

	if g := s.take(); g == nil || g.Project != "q" {
		t.Fatalf("other project's generation lost: %+v", g)
	}
	if g := s.take(); g != nil {
		t.Fatalf("generation queued before the delete survived: %+v", g)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0] != "DELETE /v1/internal/projects/p" {
		t.Fatalf("peer saw %v, want one replica removal", got)
	}
}

// TestClusterHandoffOnMembershipChange grows a 1-node "cluster" into the
// full 3-node spec and proves the moved project is handed off: the WAL
// and latest generation transfer to the new home, the old home demotes to
// a serving replica, writes flow to the new home, and generation
// numbering continues without a restart.
func TestClusterHandoffOnMembershipChange(t *testing.T) {
	tc := startCluster(t, 3, true)
	n1 := tc.nodes[0]
	project := projectHomedOn(t, n1.set, "n2")
	ctx := context.Background()

	// Phase 1: n1 runs solo (single-member spec) and homes everything.
	soloSet, err := member.Parse("n1", "n1="+n1.addr)
	if err != nil {
		t.Fatal(err)
	}
	n1.node.Close()
	solo, err := New(Options{Members: soloSet, Platform: n1.p, Local: platform.NewServer(n1.p)})
	if err != nil {
		t.Fatal(err)
	}
	n1.sw.set(solo)

	c := client.New(n1.addr)
	if err := c.CreateProject(ctx, api.CreateProjectRequest{ID: project, Schema: clusterSchema(), Rows: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitAnswers(ctx, project, []api.Answer{
		api.LabelAnswer("w1", 0, "category", "movie"),
		api.LabelAnswer("w2", 0, "category", "movie"),
	}); err != nil {
		t.Fatal(err)
	}
	before, err := c.Estimates(ctx, project, client.EstimatesQuery{MinGeneration: api.GenerationFresh})
	if err != nil {
		t.Fatal(err)
	}

	// Phase 2: the operator grows the spec; n1 "restarts" into the full
	// ring and rebalances. Only the moved project transfers.
	solo.Close()
	grown, err := New(Options{Members: n1.set, Platform: n1.p, Local: platform.NewServer(n1.p)})
	if err != nil {
		t.Fatal(err)
	}
	n1.sw.set(grown)
	defer grown.Close()
	if err := grown.Rebalance(); err != nil {
		t.Fatalf("rebalance: %v", err)
	}

	// The old home is a follower now; the new home owns the full history.
	follower, home, err := n1.p.IsFollower(project)
	if err != nil || !follower {
		t.Fatalf("n1 after handoff: follower=%v home=%q err=%v", follower, home, err)
	}
	newHomeProj, err := tc.nodes[1].p.Project(project)
	if err != nil {
		t.Fatalf("new home missing project: %v", err)
	}
	if got := newHomeProj.Log.Len(); got != 2 {
		t.Fatalf("new home owns %d answers, want 2", got)
	}

	// Writes through the demoted node route to the new home; the next
	// generation continues the numbering and replicates back to n1.
	if _, err := c.SubmitAnswers(ctx, project, []api.Answer{
		api.LabelAnswer("w3", 0, "category", "movie"),
	}); err != nil {
		t.Fatalf("write after handoff: %v", err)
	}
	after, err := c.Estimates(ctx, project, client.EstimatesQuery{MinGeneration: api.GenerationFresh})
	if err != nil {
		t.Fatal(err)
	}
	if after.Generation <= before.Generation {
		t.Fatalf("generation did not continue across handoff: %d then %d", before.Generation, after.Generation)
	}
	waitGeneration(t, n1.addr, project, after.Generation)
}
