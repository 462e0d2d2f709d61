package reputation

import (
	"fmt"
	"math"
	"testing"

	"tcrowd/internal/tabular"
)

// seedCell gives a cell an agreement baseline: n prior label-0 answers
// from throwaway seed workers.
func seedCell(e *Engine, c tabular.Cell, n int) {
	for i := 0; i < n; i++ {
		e.Observe(Observation{Answer: tabular.Answer{
			Worker: tabular.WorkerID(fmt.Sprintf("seed-%d-%d-%d", c.Row, c.Col, i)),
			Cell:   c,
			Value:  tabular.LabelValue(0),
		}})
	}
}

// answer feeds one categorical answer from u on a freshly-seeded cell and
// returns any verdict. agree selects the plurality label (0) or not (1).
func answer(e *Engine, u tabular.WorkerID, row int, agree bool, workMs int64) (Verdict, bool) {
	c := tabular.Cell{Row: row, Col: 0}
	seedCell(e, c, 3)
	l := 1
	if agree {
		l = 0
	}
	return e.Observe(Observation{
		Answer:     tabular.Answer{Worker: u, Cell: c, Value: tabular.LabelValue(l)},
		WorkTimeMs: workMs,
	})
}

func TestHonestWorkerStaysActive(t *testing.T) {
	e := NewEngine()
	u := tabular.WorkerID("honest")
	for i := 0; i < 100; i++ {
		if v, changed := answer(e, u, i, true, 4000); changed {
			t.Fatalf("honest worker changed state: %+v", v)
		}
	}
	if st := e.State(u); st != Active {
		t.Fatalf("honest worker state = %v, want active", st)
	}
	if w := e.Weight(u); w != 1 {
		t.Fatalf("honest worker weight = %v, want 1", w)
	}
	if !e.Assignable(u) {
		t.Fatal("honest worker not assignable")
	}
}

func TestJunkWorkerEscalatesToBan(t *testing.T) {
	e := NewEngine()
	u := tabular.WorkerID("junk")
	var got []State
	for i := 0; i < 60; i++ {
		if v, changed := answer(e, u, i, false, 0); changed {
			got = append(got, v.To)
			if v.From != Active && got[len(got)-1] != v.To {
				t.Fatalf("unexpected transition %+v", v)
			}
		}
	}
	want := []State{Watched, Quarantined, Banned}
	if len(got) != len(want) {
		t.Fatalf("transitions = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("transition %d = %v, want %v", i, got[i], want[i])
		}
	}
	if e.Assignable(u) {
		t.Fatal("banned worker still assignable")
	}
	if w := e.Weight(u); w != 0 {
		t.Fatalf("banned worker weight = %v, want 0", w)
	}

	// Bans are sticky: agreement afterwards never de-escalates.
	for i := 100; i < 160; i++ {
		if v, changed := answer(e, u, i, true, 4000); changed {
			t.Fatalf("banned worker de-escalated: %+v", v)
		}
	}
	if st := e.State(u); st != Banned {
		t.Fatalf("state after agreeing = %v, want banned", st)
	}
}

// TestFastAloneOnlyWatches pins the signal mix: a worker who agrees with
// everyone but answers suspiciously fast can reach Watched (down-weighted)
// but never Quarantined or Banned — speed alone is not disagreement
// evidence.
func TestFastAloneOnlyWatches(t *testing.T) {
	e := NewEngine()
	u := tabular.WorkerID("speedy")
	seen := Active
	for i := 0; i < 200; i++ {
		answer(e, u, i, true, 50)
		if st := e.State(u); st > seen {
			seen = st
		}
	}
	if seen != Watched {
		t.Fatalf("fast-but-agreeing worker peaked at %v, want watched", seen)
	}
}

// TestSleeperCaught: an honest history does not shield a worker that turns
// malicious — the EWMA forgets, so the sleeper converges to a ban within a
// bounded number of post-turn answers.
func TestSleeperCaught(t *testing.T) {
	e := NewEngine()
	u := tabular.WorkerID("sleeper")
	for i := 0; i < 80; i++ {
		answer(e, u, i, true, 4000)
	}
	if st := e.State(u); st != Active {
		t.Fatalf("sleeper flagged while honest: %v", st)
	}
	bannedAfter := -1
	for i := 0; i < 60; i++ {
		answer(e, u, 1000+i, false, 100)
		if e.State(u) == Banned {
			bannedAfter = i + 1
			break
		}
	}
	if bannedAfter < 0 {
		t.Fatal("sleeper never banned after turning malicious")
	}
	if bannedAfter > 45 {
		t.Fatalf("sleeper took %d post-turn answers to ban; EWMA too slow", bannedAfter)
	}
}

// TestModelQualityDoesNotPerturbVerdicts: interleaving model-quality
// updates anywhere in the stream leaves the verdict sequence bitwise
// unchanged — the property the platform's batch-split determinism rests
// on.
func TestModelQualityDoesNotPerturbVerdicts(t *testing.T) {
	run := func(pushQuality bool) []Verdict {
		e := NewEngine()
		u := tabular.WorkerID("w")
		var vs []Verdict
		for i := 0; i < 60; i++ {
			if pushQuality && i%3 == 0 {
				e.ObserveModelQuality(u, 0.1+0.01*float64(i%7))
			}
			if v, changed := answer(e, u, i, i%4 != 0, 100); changed {
				vs = append(vs, v)
			}
		}
		return vs
	}
	a, b := run(false), run(true)
	if len(a) != len(b) {
		t.Fatalf("verdict count diverged: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("verdict %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestWeightModulation(t *testing.T) {
	e := NewEngine()
	u := tabular.WorkerID("w")
	// Drive into Quarantined.
	for i := 0; e.State(u) != Quarantined && i < 100; i++ {
		answer(e, u, i, false, 0)
	}
	if st := e.State(u); st != Quarantined {
		t.Fatalf("setup failed: state %v", st)
	}
	if w := e.Weight(u); w != 0.05 {
		t.Fatalf("quarantined weight = %v, want 0.05", w)
	}
	// A model-certified poor worker shrinks further.
	e.ObserveModelQuality(u, 0.2)
	if w := e.Weight(u); math.Abs(w-0.02) > 1e-12 {
		t.Fatalf("modulated weight = %v, want 0.02", w)
	}
	// Good model quality never boosts above the state weight.
	e.ObserveModelQuality(u, 0.95)
	if w := e.Weight(u); w != 0.05 {
		t.Fatalf("weight with good model quality = %v, want 0.05", w)
	}
	ws := e.Weights()
	if ws[u] != 0.05 {
		t.Fatalf("Weights() missing quarantined worker: %v", ws)
	}
	for id, w := range ws {
		if w == 1 {
			t.Fatalf("Weights() contains unit entry for %s", id)
		}
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	e := NewEngine()
	workers := []tabular.WorkerID{"a", "b", "c"}
	for i := 0; i < 40; i++ {
		u := workers[i%len(workers)]
		answer(e, u, i, u == "a", int64(100+i*200))
	}
	e.ObserveModelQuality("b", 0.3)

	snaps := e.Snapshot()
	e2 := NewEngine()
	e2.Restore(snaps)
	for _, u := range workers {
		if e2.State(u) != e.State(u) {
			t.Fatalf("state(%s) diverged after restore", u)
		}
		if e2.Weight(u) != e.Weight(u) {
			t.Fatalf("weight(%s) diverged after restore", u)
		}
		if e2.Score(u) != e.Score(u) {
			t.Fatalf("score(%s) diverged after restore", u)
		}
		if e2.SnapshotOf(u) != e.SnapshotOf(u) {
			t.Fatalf("snapshot(%s) diverged after restore", u)
		}
	}
}
