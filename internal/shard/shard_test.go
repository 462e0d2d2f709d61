package shard

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// keysOnDistinctShards probes for two keys the ring places on different
// shards (always exists for >= 2 shards with any reasonable ring).
func keysOnDistinctShards(t *testing.T, s *Scheduler) (a, b string) {
	t.Helper()
	a = "probe-0"
	sa := s.ShardFor(a)
	for i := 1; i < 10000; i++ {
		b = fmt.Sprintf("probe-%d", i)
		if s.ShardFor(b) != sa {
			return a, b
		}
	}
	t.Fatal("could not find keys on distinct shards")
	return "", ""
}

// keysOnShard probes for n distinct keys the ring places on the given
// shard.
func keysOnShard(t *testing.T, s *Scheduler, shard, n int) []string {
	t.Helper()
	var out []string
	for i := 0; i < 100000 && len(out) < n; i++ {
		k := fmt.Sprintf("key-%d", i)
		if s.ShardFor(k) == shard {
			out = append(out, k)
		}
	}
	if len(out) < n {
		t.Fatalf("found only %d/%d keys for shard %d", len(out), n, shard)
	}
	return out
}

func TestSubmitWaitRunsJobAndPropagatesError(t *testing.T) {
	s := New(Options{Workers: 2})
	defer s.Close()

	var ran atomic.Int64
	if err := s.SubmitWait("p", func() error { ran.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 1 {
		t.Fatalf("job ran %d times", ran.Load())
	}
	boom := errors.New("boom")
	if err := s.SubmitWait("p", func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("job error not propagated: %v", err)
	}
	m := s.Metrics()
	var completed, failed uint64
	for _, sm := range m {
		completed += sm.Completed
		failed += sm.Failed
	}
	if completed != 2 || failed != 1 {
		t.Fatalf("metrics: completed=%d failed=%d", completed, failed)
	}
}

// TestCoalescing pins the core queue semantics: while a job for a key is
// queued (not yet running), further submits for the same key collapse into
// it — one execution serves them all, and every waiter is notified.
func TestCoalescing(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 8})
	defer s.Close()

	gate := make(chan struct{})
	// Occupy the single worker so the next submits stay queued.
	if err := s.Submit("blocker", func() error { <-gate; return nil }); err != nil {
		t.Fatal(err)
	}
	// Wait until the blocker is running (its queue slot is released).
	waitUntil(t, func() bool { return s.Metrics()[0].Depth == 0 })

	var runs atomic.Int64
	refresh := func() error { runs.Add(1); return nil }
	if err := s.Submit("proj", refresh); err != nil {
		t.Fatal(err)
	}
	// 5 duplicate refreshes for the queued key: all coalesce.
	var wg sync.WaitGroup
	errs := make([]error, 5)
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.SubmitWait("proj", refresh)
		}(i)
	}
	// Let the waiters attach before releasing the worker.
	waitUntil(t, func() bool { return s.Metrics()[0].Coalesced >= 5 })
	close(gate)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("coalesced job ran %d times, want 1", got)
	}
	m := s.Metrics()[0]
	if m.Coalesced != 5 {
		t.Fatalf("coalesced counter = %d, want 5", m.Coalesced)
	}
	if m.Enqueued != 2 { // blocker + proj
		t.Fatalf("enqueued counter = %d, want 2", m.Enqueued)
	}
}

// TestSaturationReturnsTypedError pins backpressure: a full shard queue
// rejects new keys with ErrShardSaturated (and counts the rejection), while
// already-queued keys still coalesce fine.
func TestSaturationReturnsTypedError(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 2})
	defer s.Close()

	gate := make(chan struct{})
	defer close(gate)
	if err := s.Submit("blocker", func() error { <-gate; return nil }); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool { return s.Metrics()[0].Depth == 0 })

	// Fill the queue with 2 distinct keys.
	for i := 0; i < 2; i++ {
		if err := s.Submit(fmt.Sprintf("fill-%d", i), func() error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	// A third distinct key must be rejected with the typed error.
	err := s.Submit("overflow", func() error { return nil })
	if !errors.Is(err, ErrShardSaturated) {
		t.Fatalf("want ErrShardSaturated, got %v", err)
	}
	// Coalescing into an already-queued key still works at saturation.
	if err := s.Submit("fill-0", func() error { return nil }); err != nil {
		t.Fatalf("coalesce at saturation rejected: %v", err)
	}
	m := s.Metrics()[0]
	if m.Rejected != 1 {
		t.Fatalf("rejected counter = %d, want 1", m.Rejected)
	}
}

// TestIsolationUnderSaturatedShard is the acceptance-criterion test: with
// one shard wedged (stuck job, full queue), keys on other shards keep
// being served at full speed.
func TestIsolationUnderSaturatedShard(t *testing.T) {
	s := New(Options{Workers: 2, QueueDepth: 1})
	defer s.Close()
	hot, cold := keysOnDistinctShards(t, s)

	// Wedge the hot shard: a job that never finishes during the test
	// window plus a full queue behind it.
	gate := make(chan struct{})
	defer close(gate)
	if err := s.Submit(hot, func() error { <-gate; return nil }); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool { return s.Metrics()[s.ShardFor(hot)].Depth == 0 })
	hotKeys := keysOnShard(t, s, s.ShardFor(hot), 2)
	if err := s.Submit(hotKeys[0], func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	// The hot shard is now wedged AND full: a new key there is rejected.
	if err := s.Submit(hotKeys[1], func() error { return nil }); !errors.Is(err, ErrShardSaturated) {
		t.Fatalf("wedged shard accepted new work: %v", err)
	}

	// The cold shard's projects still refresh, promptly.
	for i := 0; i < 5; i++ {
		done := make(chan error, 1)
		go func() { done <- s.SubmitWait(cold, func() error { return nil }) }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("cold shard blocked behind saturated hot shard")
		}
	}
}

// TestCloseDrainsQueuedJobs pins shutdown semantics: Close waits for every
// accepted job to run; submits after Close fail with ErrClosed.
func TestCloseDrainsQueuedJobs(t *testing.T) {
	s := New(Options{Workers: 2, QueueDepth: 64})
	var ran atomic.Int64
	const jobs = 20
	for i := 0; i < jobs; i++ {
		key := fmt.Sprintf("p-%d", i)
		if err := s.Submit(key, func() error {
			time.Sleep(time.Millisecond)
			ran.Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if got := ran.Load(); got != jobs {
		t.Fatalf("Close drained %d/%d jobs", got, jobs)
	}
	if err := s.Submit("late", func() error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
	if err := s.SubmitWait("late", func() error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit-wait after close: %v", err)
	}
}

// TestJobPanicDoesNotKillWorker pins the worker's panic barrier: a
// panicking job surfaces as an error and the shard keeps serving.
func TestJobPanicDoesNotKillWorker(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	err := s.SubmitWait("p", func() error { panic("kaboom") })
	if err == nil {
		t.Fatal("panic swallowed")
	}
	if err := s.SubmitWait("p", func() error { return nil }); err != nil {
		t.Fatalf("worker dead after panic: %v", err)
	}
	if m := s.Metrics()[0]; m.Failed != 1 || m.Completed != 2 {
		t.Fatalf("metrics after panic: %+v", m)
	}
}

// TestConcurrentSubmitters hammers the scheduler from many goroutines
// (run under -race in CI): mixed Submit/SubmitWait across overlapping keys
// must neither race nor lose notifications.
func TestConcurrentSubmitters(t *testing.T) {
	s := New(Options{Workers: 4, QueueDepth: 256})
	defer s.Close()
	var executed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("proj-%d", (g*50+i)%7)
				fn := func() error { executed.Add(1); return nil }
				var err error
				if i%3 == 0 {
					err = s.SubmitWait(key, fn)
				} else {
					err = s.Submit(key, fn)
				}
				if err != nil && !errors.Is(err, ErrShardSaturated) {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// Drain whatever is still queued.
	s.Close()
	var enq, coal, rej, comp uint64
	for _, m := range s.Metrics() {
		enq += m.Enqueued
		coal += m.Coalesced
		rej += m.Rejected
		comp += m.Completed
	}
	if comp != enq {
		t.Fatalf("completed %d != enqueued %d", comp, enq)
	}
	if enq+coal+rej != 16*50 {
		t.Fatalf("accounting: enqueued %d + coalesced %d + rejected %d != %d submits", enq, coal, rej, 16*50)
	}
	if executed.Load() != int64(comp) {
		t.Fatalf("executed %d != completed %d", executed.Load(), comp)
	}
}

// TestRingDeterminismAndSpread sanity-checks the consistent-hash ring:
// placement is deterministic, every shard owns a reasonable share of keys,
// and growing the worker count moves only a minority of keys.
func TestRingDeterminismAndSpread(t *testing.T) {
	const n = 8
	a := New(Options{Workers: n, QueueDepth: 1})
	b := New(Options{Workers: n, QueueDepth: 1})
	defer a.Close()
	defer b.Close()

	counts := make([]int, n)
	const keys = 4096
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("project-%d", i)
		sa, sb := a.ShardFor(k), b.ShardFor(k)
		if sa != sb {
			t.Fatalf("placement not deterministic: %q -> %d vs %d", k, sa, sb)
		}
		counts[sa]++
	}
	for sh, c := range counts {
		// Perfectly uniform would be keys/n; allow a generous band (vnode
		// smoothing with 32 replicas keeps real spread well inside it).
		if c < keys/n/4 || c > keys/n*4 {
			t.Fatalf("shard %d owns %d of %d keys (n=%d): ring badly unbalanced", sh, c, keys, n)
		}
	}

	grown := New(Options{Workers: n + 1, QueueDepth: 1})
	defer grown.Close()
	moved := 0
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("project-%d", i)
		if a.ShardFor(k) != grown.ShardFor(k) {
			moved++
		}
	}
	// Consistent hashing should move ~1/(n+1) of keys; mod-hashing would
	// move ~n/(n+1). Assert we are far from the mod-hash regime.
	if moved > keys/2 {
		t.Fatalf("growing %d->%d shards moved %d/%d keys — not consistent hashing", n, n+1, moved, keys)
	}
}

// TestHashKeyMatchesStdlibFNV pins the hand-rolled allocation-free FNV-1a
// loop to the stdlib implementation: placement must stay stable across
// refactors, since it decides which shard owns every persisted project.
func TestHashKeyMatchesStdlibFNV(t *testing.T) {
	for _, key := range []string{"", "p", "project-42", "Ω/unicode key", "a-much-longer-project-identifier"} {
		h := fnv.New64a()
		_, _ = h.Write([]byte(key))
		if want, got := mix64(h.Sum64()), hashKey(key); got != want {
			t.Fatalf("hashKey(%q) = %#x, stdlib fnv gives %#x", key, got, want)
		}
	}
}

// waitUntil polls cond to avoid sleeping fixed durations in tests.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSubmitNotifyKeyedRoutesByRouteKeyCoalescesByJobKey pins the split
// identity: keyed jobs run on the ROUTE key's shard (regardless of the
// job key), coalesce with queued jobs sharing their job key, and never
// coalesce across distinct job keys for the same route.
func TestSubmitNotifyKeyedRoutesByRouteKeyCoalescesByJobKey(t *testing.T) {
	s := New(Options{Workers: 2, QueueDepth: 16})
	defer s.Close()
	submitWait := func(routeKey, jobKey string, fn func() error) error {
		done, err := s.SubmitNotifyKeyed(routeKey, jobKey, fn)
		if err != nil {
			return err
		}
		return <-done
	}

	// Routing: the job lands on routeKey's shard even when jobKey would
	// hash elsewhere.
	route, other := keysOnDistinctShards(t, s)
	sh := s.ShardFor(route)
	gate := make(chan struct{})
	if err := s.Submit(route, func() error { <-gate; return nil }); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- submitWait(route, other /* jobKey hashing to the other shard */, func() error { return nil })
	}()
	// The keyed job must be behind the blocker on route's shard: the
	// other shard stays idle, so nothing completes until the gate opens.
	queued := time.Now().Add(5 * time.Second)
	for s.Metrics()[sh].Depth == 0 {
		if time.Now().After(queued) {
			t.Fatal("keyed job not queued on the route key's shard")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
		t.Fatal("keyed job ran before the route shard's blocker finished")
	default:
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// Coalescing: with the worker blocked again, two keyed submits under
	// one job key collapse into one queued job; a submit under a second
	// job key does not.
	gate2 := make(chan struct{})
	if err := s.Submit(route, func() error { <-gate2; return nil }); err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	results := make(chan error, 3)
	for _, jobKey := range []string{"kind-a", "kind-a", "kind-b"} {
		jk := jobKey
		go func() {
			results <- submitWait(route, jk, func() error { ran.Add(1); return nil })
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics()[sh].Coalesced == 0 || s.Metrics()[sh].Depth < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("keyed coalescing metrics: %+v", s.Metrics()[sh])
		}
		time.Sleep(time.Millisecond)
	}
	close(gate2)
	for i := 0; i < 3; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
	if got := ran.Load(); got != 2 {
		t.Fatalf("keyed jobs ran %d times, want 2 (kind-a coalesced, kind-b separate)", got)
	}
}
