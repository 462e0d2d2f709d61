package platform

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tcrowd/api"
	"tcrowd/internal/metrics"
	"tcrowd/internal/tabular"
	"tcrowd/internal/wal"
)

// TestGenerationStoreReadsOneGeneration races a stream of installs against
// the readers of a project's published state, on a home (refresh
// publishes) and on a replica (applied generations): a LatestReplicated
// result and its event always name one generation, and no reader sees the
// generation go backwards — Snapshot, LatestEvent and LatestReplicated
// never report a lower one, and a generation SnapshotAt has served never
// reads as unpublished again.
func TestGenerationStoreReadsOneGeneration(t *testing.T) {
	t.Run("home", func(t *testing.T) {
		p := New(1)
		defer p.Close()
		if _, err := p.CreateProject("p", demoSchema(), ProjectConfig{Rows: 3}); err != nil {
			t.Fatal(err)
		}
		raceReaders(t, p, "p", func() {
			for i := 0; i < 60; i++ {
				publishOnce(t, p, "p", i)
			}
		})
	})
	t.Run("replica", func(t *testing.T) {
		home := New(1)
		defer home.Close()
		if _, err := home.CreateProject("p", demoSchema(), ProjectConfig{Rows: 3}); err != nil {
			t.Fatal(err)
		}
		publishOnce(t, home, "p", 0)
		base, _, err := home.LatestReplicated("p")
		if err != nil {
			t.Fatal(err)
		}
		follower := NewWithOptions(1, Options{RetainGenerations: 4})
		defer follower.Close()
		raceReaders(t, follower, "p", func() {
			for gen := 1; gen <= 600; gen++ {
				g := base
				g.Generation, g.Event.Generation = gen, gen
				if err := follower.ApplyReplicatedGeneration(&g, homeURL); err != nil {
					t.Error(err)
					return
				}
			}
		})
	})
}

// raceReaders runs publish while four readers poll project id on p, and
// fails the test on the first torn or backwards read.
func raceReaders(t *testing.T, p *Platform, id string, publish func()) {
	t.Helper()
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	poll := func(name string, read func() (gen int, ok bool, err error)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for !stop.Load() {
				gen, ok, err := read()
				if err == nil && ok && gen < last {
					err = fmt.Errorf("generation %d after %d", gen, last)
				}
				if err != nil {
					errs <- fmt.Errorf("%s: %w", name, err)
					return
				}
				if ok {
					last = gen
				}
			}
		}()
	}
	// Before the first install every reader reports nothing yet.
	unpublished := func(err error) bool {
		return errors.Is(err, ErrNoProject) || errors.Is(err, ErrNoSnapshot) || errors.Is(err, ErrReplicaStale)
	}
	poll("Snapshot", func() (int, bool, error) {
		res, err := p.Snapshot(id)
		if unpublished(err) {
			return 0, false, nil
		}
		if err != nil {
			return 0, false, err
		}
		return res.Generation, true, nil
	})
	poll("LatestEvent", func() (int, bool, error) {
		ev, ok, err := p.LatestEvent(id)
		if errors.Is(err, ErrNoProject) {
			return 0, false, nil
		}
		return ev.Generation, ok, err
	})
	poll("LatestReplicated", func() (int, bool, error) {
		g, ok, err := p.LatestReplicated(id)
		if errors.Is(err, ErrNoProject) || err == nil && !ok {
			return 0, false, nil
		}
		if err == nil && g.Event.Generation != g.Generation {
			err = fmt.Errorf("result of generation %d paired with the event of generation %d", g.Generation, g.Event.Generation)
		}
		return g.Generation, true, err
	})
	served := 0
	poll("SnapshotAt", func() (int, bool, error) {
		if served > 0 {
			// Still retained or evicted, never unpublished again.
			if _, err := p.SnapshotAt(id, served); err != nil && !errors.Is(err, ErrGenerationGone) {
				return 0, false, fmt.Errorf("served generation %d reads as: %w", served, err)
			}
		}
		res, err := p.SnapshotAt(id, served+1)
		switch {
		case unpublished(err):
			return 0, false, nil
		case errors.Is(err, ErrGenerationGone):
			// Lagged past the ring: resume at the latest.
			latest, lerr := p.Snapshot(id)
			if lerr != nil {
				return 0, false, lerr
			}
			served = latest.Generation
			return served, true, nil
		case err != nil:
			return 0, false, err
		case res.Generation != served+1:
			return 0, false, fmt.Errorf("asked for generation %d, got %d", served+1, res.Generation)
		}
		served = res.Generation
		return served, true, nil
	})
	publish()
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestAdoptWALGenerationsStayMonotone promotes a node through AdoptWAL,
// handing it a seed newer than anything it holds, while submissions on the
// new home trigger refreshes: once a follower holding generations, once a
// node that holds no replica. A pinned reader never sees the generation go
// backwards or fall below the seed's once the project is rebuilt, and the
// seed's generation number serves the seed's result, not a refresh the new
// home numbered itself; the follower's carried-over watcher sees strictly
// increasing generations past the seed, the seed's own event included.
func TestAdoptWALGenerationsStayMonotone(t *testing.T) {
	t.Run("replica", func(t *testing.T) { adoptWhileSubmitting(t, true) })
	t.Run("no-replica", func(t *testing.T) { adoptWhileSubmitting(t, false) })
}

func adoptWhileSubmitting(t *testing.T, withReplica bool) {
	home, _, err := Recover(1, walTestOpts(wal.NewMemFS(), wal.SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	defer home.Close()
	// A ring wide enough that the seed's generation is still retained when
	// the test reads it back.
	opts := walTestOpts(wal.NewMemFS(), wal.SyncNever)
	opts.RetainGenerations = 1000
	node, _, err := Recover(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if _, err := home.CreateProject("p", demoSchema(), ProjectConfig{Rows: 3, RefreshEvery: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		publishOnce(t, home, "p", i)
		if i < 3 && withReplica {
			// The replica lags the seed by one.
			g := shipLatest(t, home, "p")
			if err := node.ApplyReplicatedGeneration(&g, homeURL); err != nil {
				t.Fatal(err)
			}
		}
	}
	segs, err := home.ShipWAL("p")
	if err != nil {
		t.Fatal(err)
	}
	seed, _, err := home.LatestReplicated("p")
	if err != nil {
		t.Fatal(err)
	}
	var events <-chan api.WatchEvent
	if withReplica {
		w, err := node.Watch("p")
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		events = w.Events()
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 1) // the pinned reader sends at most once
	wg.Add(3)
	go func() {
		// Rejected (not home, or no project) until the promotion; each
		// accepted answer enqueues a refresh.
		defer wg.Done()
		for i := 0; !stop.Load() && i < 5000; i++ {
			a := tabular.Answer{Worker: tabular.WorkerID(fmt.Sprintf("new-%d", i)),
				Cell: tabular.Cell{Row: i % 3, Col: 1}, Value: tabular.NumberValue(float64(i % 9))}
			_, _ = node.SubmitBatch("p", []tabular.Answer{a})
			time.Sleep(50 * time.Microsecond)
		}
	}()
	go func() {
		defer wg.Done()
		last := 0
		for !stop.Load() {
			res, err := node.Snapshot("p")
			if errors.Is(err, ErrNoProject) {
				continue // before the promotion, or in its window
			}
			switch {
			case !withReplica && err == nil && res.Generation < seed.Generation:
				err = fmt.Errorf("generation %d below the seed's %d", res.Generation, seed.Generation)
			case err == nil && res.Generation < last:
				err = fmt.Errorf("generation %d after %d", res.Generation, last)
			case err == nil && res.Generation == seed.Generation && !reflect.DeepEqual(*res, seed.InferenceResult):
				err = fmt.Errorf("generation %d serves a result other than the seed's", res.Generation)
			}
			if err == nil {
				last = res.Generation
				if _, err = node.SnapshotAt("p", last); errors.Is(err, ErrNoProject) {
					err = nil // the replica was unregistered since the read
				}
			}
			if err != nil {
				errs <- fmt.Errorf("pinned reader: %w", err)
				return
			}
		}
	}()
	var seen []api.WatchEvent
	go func() {
		defer wg.Done()
		for !stop.Load() && events != nil {
			select {
			case ev := <-events:
				seen = append(seen, ev)
			case <-time.After(time.Millisecond):
			}
		}
	}()

	if adopted, err := node.AdoptWAL("p", segs, &seed); err != nil || !adopted {
		t.Fatalf("AdoptWAL: adopted=%v err=%v", adopted, err)
	}
	waitFor(t, func() bool {
		res, err := node.Snapshot("p")
		return err == nil && res.Generation >= seed.Generation+3
	})
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if res, err := node.SnapshotAt("p", seed.Generation); err != nil || !reflect.DeepEqual(*res, seed.InferenceResult) {
		t.Fatalf("generation %d on the new home: err=%v, the seed's result=%v", seed.Generation, err, err == nil && reflect.DeepEqual(*res, seed.InferenceResult))
	}
	if !withReplica {
		return
	}
	for drained := false; !drained; {
		select {
		case ev := <-events:
			seen = append(seen, ev)
		default:
			drained = true
		}
	}
	for i := 1; i < len(seen); i++ {
		if seen[i].Generation <= seen[i-1].Generation {
			t.Fatalf("carried-over watcher saw generation %d after %d (events %v)", seen[i].Generation, seen[i-1].Generation, seen)
		}
	}
	var seedEv, past bool
	for _, ev := range seen {
		seedEv = seedEv || ev.Generation == seed.Generation && reflect.DeepEqual(ev, seed.Event)
		past = past || ev.Generation > seed.Generation
	}
	if !seedEv || !past {
		t.Fatalf("carried-over watcher saw %v, want the seed's event %v and generations past it", seen, seed.Event)
	}
}

// TestReplicatedGenerationWireFormat decodes generation posts in the wire
// form the fields had before ReplicatedGeneration embedded
// InferenceResult — with and without the omitempty fields — and
// re-encodes each to the same bytes.
func TestReplicatedGenerationWireFormat(t *testing.T) {
	const head = `{"project":"books","schema":{"key":"item","columns":[{"name":"category","type":"categorical","labels":["book","movie","game"]},{"name":"price","type":"continuous","max":500}]},"entities":["r0","r1"],"generation":7,"answers_seen":12,"iterations":4,"converged":true,"estimates":[[{"Kind":1,"L":1,"X":0},{"Kind":2,"L":0,"X":9.5}],[{"Kind":0,"L":0,"X":0},{"Kind":2,"L":0,"X":42}]],`
	const event = `"event":{"project":"books","generation":7,"answers_seen":12,"answers_delta":3,"changed_cells":1,"workers":2,"converged":true,"cells":[{"row":0,"entity":"r0","column":"price"}]}`
	full := head + `"worker_quality":{"w1":0.75,"w2":0.5},` + event + `,"wal":[{"index":1,"data":"eA=="}]}`
	bare := head + event + `}`

	var g ReplicatedGeneration
	if err := json.Unmarshal([]byte(full), &g); err != nil {
		t.Fatal(err)
	}
	want := InferenceResult{
		Generation: 7, AnswersSeen: 12, Iterations: 4, Converged: true,
		Estimates:     metrics.Estimates{{tabular.LabelValue(1), tabular.NumberValue(9.5)}, {{}, tabular.NumberValue(42)}},
		WorkerQuality: map[tabular.WorkerID]float64{"w1": 0.75, "w2": 0.5},
	}
	if !reflect.DeepEqual(g.InferenceResult, want) {
		t.Fatalf("decoded result %+v, want %+v", g.InferenceResult, want)
	}
	if g.Project != "books" || !reflect.DeepEqual(g.Schema, demoSchema()) || len(g.Entities) != 2 ||
		g.Event.Generation != 7 || len(g.Event.Cells) != 1 || len(g.WAL) != 1 || string(g.WAL[0].Data) != "x" {
		t.Fatalf("decoded payload %+v", g)
	}
	if err := g.validate(); err != nil {
		t.Fatal(err)
	}
	if ev := g.watchEvent("books"); !reflect.DeepEqual(ev, g.Event) {
		t.Fatalf("consistent event rewritten: %+v", ev)
	}
	if ev := g.watchEvent("other"); !reflect.DeepEqual(ev, api.WatchEvent{Project: "other", Generation: 7, AnswersSeen: 12, Workers: 2, Converged: true}) {
		t.Fatalf("mismatched event rebuilt as %+v", ev)
	}
	for _, in := range []string{full, bare} {
		var g ReplicatedGeneration
		if err := json.Unmarshal([]byte(in), &g); err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(&g)
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != in {
			t.Fatalf("re-encoded as\n%s\nwant\n%s", out, in)
		}
	}
}
