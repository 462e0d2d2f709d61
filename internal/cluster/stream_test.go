package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"tcrowd/api"
	"tcrowd/client"
	"tcrowd/internal/platform"
	"tcrowd/internal/tabular"
	"tcrowd/internal/wal"
)

// recoveredLog recovers a platform from opts and returns the project's
// answer log and the ids of every project it recovered.
func recoveredLog(t *testing.T, opts platform.Options, project string) ([]tabular.Answer, []string) {
	t.Helper()
	p, _, err := platform.Recover(1, opts)
	if err != nil {
		t.Fatalf("recover mirror: %v", err)
	}
	defer p.Close()
	var log []tabular.Answer
	if proj, err := p.Project(project); err == nil {
		log = proj.Log.All()
	}
	return log, p.ProjectIDs()
}

// homeLog returns the home's answer log of project.
func homeLog(t *testing.T, tn *testNode, project string) []tabular.Answer {
	t.Helper()
	proj, err := tn.p.Project(project)
	if err != nil {
		t.Fatal(err)
	}
	return proj.Log.All()
}

// TestClusterFollowerMirrorsHomeWAL pins the durable half of the stream:
// after several publishes — enough to rotate and compact the home's WAL —
// recovering the follower's WAL directory gives the home's exact answer
// log.
func TestClusterFollowerMirrorsHomeWAL(t *testing.T) {
	tc := startCluster(t, 2, true, func(_ int, po *platform.Options, _ *Options) {
		po.WAL.SegmentBytes = 512
	})
	home, follower := tc.nodes[0], tc.nodes[1]
	project := projectHomedOn(t, home.set, "n1")
	ctx := context.Background()
	c := client.New(home.addr)
	if err := c.CreateProject(ctx, api.CreateProjectRequest{ID: project, Schema: clusterSchema(), Rows: 4}); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 6; r++ {
		if _, err := c.SubmitAnswers(ctx, project, []api.Answer{
			api.LabelAnswer(fmt.Sprintf("w%d", r), r%4, "category", "movie"),
			api.NumberAnswer(fmt.Sprintf("w%d", r), r%4, "price", float64(10*r+1)),
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Estimates(ctx, project, client.EstimatesQuery{MinGeneration: api.GenerationFresh}); err != nil {
			t.Fatal(err)
		}
	}
	waitShipped(t, home.node)

	// Recover a copy: the follower keeps serving from the original.
	dir := filepath.Join(t.TempDir(), "mirror")
	if err := os.CopyFS(dir, os.DirFS(follower.opts.WAL.Dir)); err != nil {
		t.Fatal(err)
	}
	got, ids := recoveredLog(t, platform.Options{WAL: &platform.WALOptions{Dir: dir, SegmentBytes: 512}}, project)
	want := homeLog(t, home, project)
	if len(want) != 12 || !reflect.DeepEqual(got, want) {
		t.Fatalf("follower mirror recovers %d answers %v, home holds %d %v", len(got), got, len(want), want)
	}
	if len(ids) != 1 {
		t.Fatalf("mirror recovered projects %v, want only %s", ids, project)
	}
}

// Faults the home's peer transport injects into generation posts.
const (
	faultNone = iota
	faultDrop
	faultDelay
	faultDuplicate
	numFaults
)

// faultyTransport is the home's peer transport in TestClusterStreamFaults:
// while armed it drops, delays or duplicates generation posts, chosen by
// a seeded RNG. A duplicate is delivered and then reported as a failure,
// so the shipper sends it again. Every other request passes through.
type faultyTransport struct {
	base *http.Transport
	mu   sync.Mutex
	rng  *rand.Rand
	on   bool
	seen [numFaults]int
}

func (f *faultyTransport) arm(on bool) {
	f.mu.Lock()
	f.on = on
	f.mu.Unlock()
}

func (f *faultyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method != http.MethodPost || !strings.HasSuffix(req.URL.Path, "/generations") {
		return f.base.RoundTrip(req)
	}
	f.mu.Lock()
	fault := faultNone
	if f.on {
		fault = f.rng.Intn(numFaults)
	}
	delay := time.Duration(1+f.rng.Intn(30)) * time.Millisecond
	f.seen[fault]++
	f.mu.Unlock()
	switch fault {
	case faultDrop:
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, errors.New("injected fault: generation post dropped")
	case faultDelay:
		time.Sleep(delay)
	}
	resp, err := f.base.RoundTrip(req)
	if err == nil && fault == faultDuplicate {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, errors.New("injected fault: generation post delivered, reported lost")
	}
	return resp, err
}

// TestClusterStreamFaults is the first slice of a seeded cluster
// simulator: a 2-node cluster whose home drops, delays and duplicates
// generation posts (chosen by the seed) while the follower's first mirror
// write is torn, with a project deleted mid-run. After a final clean
// publish the follower must never have served a generation older than
// one it served before, pin the home's final page byte for byte, hold a
// mirror that recovers the home's exact answer log, and still lack the
// deleted project. Replay one seed with -run 'TestClusterStreamFaults/seed=7'.
func TestClusterStreamFaults(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { streamFaultRun(t, seed) })
	}
}

func streamFaultRun(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	ft := &faultyTransport{base: &http.Transport{}, rng: rand.New(rand.NewSource(seed + 1000))}
	defer ft.base.CloseIdleConnections()
	mirrorFS := wal.NewMemFS()
	tc := startCluster(t, 2, true, func(i int, po *platform.Options, co *Options) {
		if i == 0 {
			co.Client = &http.Client{Transport: ft}
		} else {
			po.WAL = &platform.WALOptions{Dir: "walroot", FS: mirrorFS, Policy: wal.SyncAlways}
		}
	})
	home, follower := tc.nodes[0], tc.nodes[1]
	ids := projectsHomedOn(t, home.set, "n1", 2)
	keep, gone := ids[0], ids[1]

	// Sample the follower's generation after every post it serves.
	var mu sync.Mutex
	served := map[string]int{}
	var backwards []string
	fnode := follower.node
	follower.sw.set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fnode.ServeHTTP(w, r)
		rest, ok := strings.CutPrefix(r.URL.Path, "/v1/internal/projects/")
		id, suffix, _ := strings.Cut(rest, "/")
		if !ok || suffix != "generations" {
			return
		}
		snap, err := follower.p.Snapshot(id)
		if err != nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if snap.Generation < served[id] {
			backwards = append(backwards, fmt.Sprintf("%s: %d after %d", id, snap.Generation, served[id]))
		}
		served[id] = snap.Generation
	}))

	ctx := context.Background()
	c := client.New(home.addr)
	for _, id := range ids {
		if err := c.CreateProject(ctx, api.CreateProjectRequest{ID: id, Schema: clusterSchema(), Rows: 4}); err != nil {
			t.Fatal(err)
		}
	}
	mirrorFS.ShortWrite(1)
	ft.arm(true)
	publish := func(id string, r int) int {
		t.Helper()
		w := fmt.Sprintf("w%d", r)
		if _, err := c.SubmitAnswers(ctx, id, []api.Answer{
			api.LabelAnswer(w, r%4, "category", []string{"book", "movie", "game"}[rng.Intn(3)]),
			api.NumberAnswer(w, r%4, "price", float64(rng.Intn(500))),
		}); err != nil {
			t.Fatal(err)
		}
		est, err := c.Estimates(ctx, id, client.EstimatesQuery{MinGeneration: api.GenerationFresh})
		if err != nil {
			t.Fatal(err)
		}
		return est.Generation
	}
	const rounds = 10
	deleteAt := 2 + rng.Intn(rounds-4)
	for r := 0; r < rounds; r++ {
		publish(keep, r)
		switch {
		case r < deleteAt:
			publish(gone, r)
		case r == deleteAt:
			if err := c.DeleteProject(ctx, gone); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(time.Duration(rng.Intn(50)) * time.Millisecond)
	}
	// A torn mirror heals only on the next ship, so the torn write must
	// come before the clean one: wait for it under faults.
	for deadline := time.Now().Add(15 * time.Second); mirrorFS.Writes() == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the follower never wrote its mirror")
		}
	}
	ft.arm(false)
	final := publish(keep, rounds)
	waitShipped(t, home.node)
	ft.mu.Lock()
	t.Logf("generation posts: %d clean, %d dropped, %d delayed, %d duplicated; gone deleted after round %d",
		ft.seen[faultNone], ft.seen[faultDrop], ft.seen[faultDelay], ft.seen[faultDuplicate], deleteAt)
	ft.mu.Unlock()

	mu.Lock()
	if len(backwards) > 0 {
		t.Errorf("follower generations went backwards: %v", backwards)
	}
	mu.Unlock()
	var pages [][]byte
	for _, tn := range tc.nodes {
		status, _, body := rawGet(t, fmt.Sprintf("%s/v1/projects/%s/estimates?generation=%d", tn.addr, keep, final), nil)
		if status != http.StatusOK {
			t.Fatalf("%s pinned read of generation %d: %d %s", tn.id, final, status, body)
		}
		pages = append(pages, body)
	}
	if !bytes.Equal(pages[0], pages[1]) {
		t.Fatalf("follower page differs from the home's:\nhome:     %s\nfollower: %s", pages[0], pages[1])
	}
	if _, err := follower.p.Project(gone); err == nil {
		t.Fatal("the follower still serves the deleted project")
	}
	got, recovered := recoveredLog(t, platform.Options{WAL: &platform.WALOptions{Dir: "walroot", FS: mirrorFS.Recovered()}}, keep)
	if want := homeLog(t, home, keep); !reflect.DeepEqual(got, want) {
		t.Fatalf("follower mirror recovers %d answers, home holds %d:\n%v\nvs\n%v", len(got), len(want), got, want)
	}
	if len(recovered) != 1 {
		t.Fatalf("mirror recovered projects %v, want only %s", recovered, keep)
	}
}
