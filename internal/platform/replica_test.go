package platform

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"tcrowd/internal/tabular"
	"tcrowd/internal/wal"
)

const homeURL = "http://home-node:8080"

// publishOnce records one fresh answer and runs inference, returning the
// published result.
func publishOnce(t *testing.T, p *Platform, project string, round int) *InferenceResult {
	t.Helper()
	w := fmt.Sprintf("w%d", round)
	if _, err := p.SubmitBatch(project, []tabular.Answer{catAnswer(w, round%3)}); err != nil {
		t.Fatalf("submit round %d: %v", round, err)
	}
	res, err := p.RunInference(project)
	if err != nil {
		t.Fatalf("inference round %d: %v", round, err)
	}
	return res
}

// TestReplicaApplyAndServe pins the follower lifecycle: a generation
// shipped from a home platform creates the project in follower mode, the
// whole pinned-read surface serves it, watchers see the bump, and every
// write path rejects with a NotHomeError carrying the home address.
func TestReplicaApplyAndServe(t *testing.T) {
	home := New(1)
	defer home.Close()
	follower := New(1)
	defer follower.Close()

	if _, err := home.CreateProject("books", demoSchema(), ProjectConfig{Rows: 3}); err != nil {
		t.Fatal(err)
	}
	res := publishOnce(t, home, "books", 0)
	g, ok, err := home.LatestReplicated("books")
	if err != nil || !ok {
		t.Fatalf("LatestReplicated: ok=%v err=%v", ok, err)
	}

	if err := follower.ApplyReplicatedGeneration(&g, homeURL); err != nil {
		t.Fatalf("apply: %v", err)
	}
	// Watch BEFORE the next apply so the bump is observed live.
	wtch, err := follower.Watch("books")
	if err != nil {
		t.Fatal(err)
	}
	defer wtch.Close()

	snap, err := follower.Snapshot("books")
	if err != nil {
		t.Fatalf("follower snapshot: %v", err)
	}
	if snap.Generation != res.Generation || !reflect.DeepEqual(snap.Estimates, res.Estimates) {
		t.Fatalf("follower serves generation %d, home published %d", snap.Generation, res.Generation)
	}
	if _, err := follower.SnapshotAt("books", res.Generation); err != nil {
		t.Fatalf("pinned read on follower: %v", err)
	}
	// A generation the stream has not delivered yet is retryable staleness,
	// not a 404.
	if _, err := follower.SnapshotAt("books", res.Generation+5); !errors.Is(err, ErrReplicaStale) {
		t.Fatalf("future generation on follower: %v, want ErrReplicaStale", err)
	}
	st, err := follower.Stats("books")
	if err != nil || st.Answers != g.AnswersSeen {
		t.Fatalf("follower stats = %+v, %v; want %d answers", st, err, g.AnswersSeen)
	}

	// Every write path rejects with the typed referral.
	var nh *NotHomeError
	_, submitErr := follower.SubmitBatch("books", []tabular.Answer{catAnswer("wx", 1)})
	if !errors.As(submitErr, &nh) || nh.Home != homeURL {
		t.Fatalf("follower submit: %v", submitErr)
	}
	if !errors.Is(submitErr, ErrNotHome) {
		t.Fatalf("NotHomeError must unwrap to ErrNotHome: %v", submitErr)
	}
	if _, err := follower.RequestTasks("books", "wx", 1); !errors.As(err, &nh) {
		t.Fatalf("follower tasks: %v", err)
	}
	if _, err := follower.RunInference("books"); !errors.As(err, &nh) {
		t.Fatalf("follower inference: %v", err)
	}
	if err := follower.DeleteProject("books"); !errors.As(err, &nh) {
		t.Fatalf("follower delete: %v", err)
	}

	// Second generation: replicated bump reaches follower watchers, stale
	// redelivery is dropped.
	res2 := publishOnce(t, home, "books", 1)
	g2, _, _ := home.LatestReplicated("books")
	if err := follower.ApplyReplicatedGeneration(&g2, homeURL); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-wtch.Events():
		if ev.Generation != res2.Generation {
			t.Fatalf("follower watcher saw generation %d, want %d", ev.Generation, res2.Generation)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("follower watcher never saw the replicated bump")
	}
	if err := follower.ApplyReplicatedGeneration(&g, homeURL); err != nil {
		t.Fatalf("stale redelivery: %v", err)
	}
	if snap, _ := follower.Snapshot("books"); snap.Generation != res2.Generation {
		t.Fatalf("stale redelivery moved the follower back to generation %d", snap.Generation)
	}

	// Applying to a home project must fail loudly: split-brain guard.
	if err := home.ApplyReplicatedGeneration(&g2, homeURL); err == nil {
		t.Fatal("home accepted a replicated generation for its own project")
	}
}

// shipLatest packages the home's latest generation with its live WAL, as
// the cluster shipper posts it.
func shipLatest(t *testing.T, home *Platform, project string) ReplicatedGeneration {
	t.Helper()
	g, ok, err := home.LatestReplicated(project)
	if err != nil || !ok {
		t.Fatalf("LatestReplicated: ok=%v err=%v", ok, err)
	}
	if g.WAL, err = home.ShipWAL(project); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestReplicaCrashMidShipConverges is the cluster crash satellite at the
// platform layer: a follower dies mid-mirror-write (injected write fault,
// then a hard crash over the wal.MemFS seam), restarts on the surviving
// bytes, takes the next ship, and converges to the leader's exact answer
// log and latest generation with no torn state.
func TestReplicaCrashMidShipConverges(t *testing.T) {
	walOpts := func(fs *wal.MemFS) Options {
		return Options{WAL: &WALOptions{Dir: "walroot", FS: fs, Policy: wal.SyncAlways, SegmentBytes: 200}}
	}
	homeFS := wal.NewMemFS()
	home, _, err := Recover(1, walOpts(homeFS))
	if err != nil {
		t.Fatal(err)
	}
	defer home.Close()
	if _, err := home.CreateProject("conv", demoSchema(), ProjectConfig{Rows: 3}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		publishOnce(t, home, "conv", i)
	}
	g := shipLatest(t, home, "conv")

	// Follower: the very first mirror write applies only half its bytes
	// and fails (mid-ship kill), then the process hard-crashes keeping a
	// torn prefix of the unsynced bytes. The failed mirror write must not
	// fail the apply: the generation serves all the same.
	fFS := wal.NewMemFS()
	follower, _, err := Recover(1, walOpts(fFS))
	if err != nil {
		t.Fatal(err)
	}
	fFS.ShortWrite(1)
	if err := follower.ApplyReplicatedGeneration(&g, homeURL); err != nil {
		t.Fatalf("a failed mirror write failed the apply: %v", err)
	}
	if fFS.Writes() == 0 {
		t.Fatal("the apply wrote no mirror")
	}
	if snap, err := follower.Snapshot("conv"); err != nil || snap.Generation != g.Generation {
		t.Fatalf("follower serving %v (err %v), want generation %d", snap, err, g.Generation)
	}
	fFS.Crash(400)
	_ = follower.Close()

	// Restart on the surviving bytes. The partial mirror recovers through
	// the ordinary crash path — the torn tail truncates to the last whole
	// frame, which may leave a partial project (recovered as home;
	// follower mode is runtime state, and the cluster layer's boot
	// rebalance re-demotes it — emulated here) or nothing at all when the
	// tear hit the first frame. Both are valid crash outcomes; neither may
	// leave torn state behind.
	surFS := fFS.Recovered()
	f2, rep, err := Recover(1, walOpts(surFS))
	if err != nil {
		t.Fatalf("restart on torn mirror: %v", err)
	}
	leaderProj, err := home.Project("conv")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Projects > 0 {
		if proj, err := f2.Project("conv"); err == nil {
			if got, want := proj.Log.Len(), leaderProj.Log.Len(); got >= want {
				t.Fatalf("torn mirror recovered %d answers, leader has %d — tear lost nothing?", got, want)
			}
		}
		if err := f2.DemoteToReplica("conv", homeURL); err != nil {
			t.Fatal(err)
		}
	}

	// The next ship rewrites the whole mirror and seeds the serving state.
	g2 := shipLatest(t, home, "conv")
	if err := f2.ApplyReplicatedGeneration(&g2, homeURL); err != nil {
		t.Fatal(err)
	}
	snap, err := f2.Snapshot("conv")
	if err != nil || snap.Generation != g2.Generation {
		t.Fatalf("follower serving generation %v (err %v), want %d", snap, err, g2.Generation)
	}
	_ = f2.Close()

	// Convergence proof: a fresh process recovering the follower's mirror
	// owns the leader's EXACT answer log — same answers, and a from-scratch
	// fit lands on the same estimates.
	f3, _, err := Recover(1, walOpts(surFS.Recovered()))
	if err != nil {
		t.Fatalf("final recovery: %v", err)
	}
	defer f3.Close()
	mirrorProj, err := f3.Project("conv")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mirrorProj.Log.All(), leaderProj.Log.All(); !reflect.DeepEqual(got, want) {
		t.Fatalf("mirror holds %d answers %v, leader %d %v", len(got), got, len(want), want)
	}
	mres, err := f3.RunInference("conv")
	if err != nil {
		t.Fatal(err)
	}
	hres, _ := home.Snapshot("conv")
	if !reflect.DeepEqual(mres.Estimates, hres.Estimates) {
		t.Fatalf("mirror fit diverged from leader:\n%v\nvs\n%v", mres.Estimates, hres.Estimates)
	}
}

// gatedFS parks the next truncating open (a mirror segment write) until
// released and reports renames, so a test can hold an apply mid-write.
type gatedFS struct {
	*wal.MemFS
	armed   atomic.Bool
	reached chan struct{}
	release chan struct{}
	renamed chan struct{}
}

func (g *gatedFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	if flag&os.O_TRUNC != 0 && g.armed.CompareAndSwap(true, false) {
		g.reached <- struct{}{}
		<-g.release
	}
	return g.MemFS.OpenFile(name, flag, perm)
}

func (g *gatedFS) Rename(oldpath, newpath string) error {
	select {
	case g.renamed <- struct{}{}:
	default:
	}
	return g.MemFS.Rename(oldpath, newpath)
}

// TestRemoveReplicaWaitsOutMirrorWrite pins that a replica removal cannot
// be undone by an apply already writing the mirror: the removal waits the
// write out and reaps after it, so no mirror survives the removal.
func TestRemoveReplicaWaitsOutMirrorWrite(t *testing.T) {
	home, _, err := Recover(1, walTestOpts(wal.NewMemFS(), wal.SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	defer home.Close()
	if _, err := home.CreateProject("gone", demoSchema(), ProjectConfig{Rows: 3}); err != nil {
		t.Fatal(err)
	}
	publishOnce(t, home, "gone", 0)
	g := shipLatest(t, home, "gone")

	fs := &gatedFS{MemFS: wal.NewMemFS(), reached: make(chan struct{}, 1),
		release: make(chan struct{}), renamed: make(chan struct{}, 1)}
	follower := NewWithOptions(1, walTestOpts(fs, wal.SyncAlways))
	defer follower.Close()
	if err := follower.ApplyReplicatedGeneration(&g, homeURL); err != nil {
		t.Fatal(err)
	}
	fs.armed.Store(true)
	applied := make(chan error, 1)
	go func() { applied <- follower.ApplyReplicatedGeneration(&g, homeURL) }() // a repeat rewrites the mirror
	<-fs.reached
	removed := make(chan error, 1)
	go func() { removed <- follower.RemoveReplica("gone") }()
	// A removal that did not wait would reap now, under the parked write.
	select {
	case <-fs.renamed:
	case <-time.After(100 * time.Millisecond):
	}
	close(fs.release)
	if err := <-applied; err != nil {
		t.Fatal(err)
	}
	if err := <-removed; err != nil {
		t.Fatal(err)
	}
	if entries, err := fs.ReadDir("walroot/gone"); err == nil && len(entries) > 0 {
		t.Fatalf("a mirror survived the removal: %d files", len(entries))
	}
}

// TestRetainBytesCapsRing pins the -retain-bytes satellite: with a byte
// cap, old generations evict even when the count cap alone would keep
// them, the latest generation always survives, and without the cap the
// same workload stays fully addressable.
func TestRetainBytesCapsRing(t *testing.T) {
	run := func(retainBytes int64) (*Platform, []*InferenceResult) {
		p := NewWithOptions(1, Options{RetainGenerations: 32, RetainBytes: retainBytes})
		if _, err := p.CreateProject("ring", demoSchema(), ProjectConfig{Rows: 3}); err != nil {
			t.Fatal(err)
		}
		var published []*InferenceResult
		for i := 0; i < 10; i++ {
			published = append(published, publishOnce(t, p, "ring", i))
		}
		return p, published
	}

	unlimited, published := run(0)
	defer unlimited.Close()
	if _, err := unlimited.SnapshotAt("ring", published[0].Generation); err != nil {
		t.Fatalf("count-capped ring evicted generation %d: %v", published[0].Generation, err)
	}

	capped, published := run(600)
	defer capped.Close()
	latest := published[len(published)-1]
	if _, err := capped.SnapshotAt("ring", latest.Generation); err != nil {
		t.Fatalf("latest generation must survive any byte cap: %v", err)
	}
	if _, err := capped.SnapshotAt("ring", published[0].Generation); !errors.Is(err, ErrGenerationGone) {
		t.Fatalf("oldest generation under a 600-byte cap: %v, want ErrGenerationGone", err)
	}
}
