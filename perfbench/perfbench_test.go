package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tcrowd/internal/tabular"
)

// benchmarkSpec is the part of BENCHMARK.json the tests hold the output to.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmokeWorkloads runs every workload shrunk to seconds, traced, and
// checks that the output checks pass, that every metric BENCHMARK.json
// names is printed with its unit, and that the traced breakdown adds up.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take about a minute")
	}
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the registry %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			if _, ok := workloads[w.Name]; !ok {
				t.Fatalf("workload %q is not registered", w.Name)
			}
			rep, err := benchmark(config{workload: w.Name, seed: 7, seconds: 2, trace: true, smoke: true, out: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.res.Correct || rep.res.Failed != 0 || rep.res.Attempted == 0 {
				t.Errorf("result correct=%v attempted=%d failed=%d; context: %v",
					rep.res.Correct, rep.res.Attempted, rep.res.Failed, rep.lines[:2])
			}
			for _, m := range spec.EndToEnd {
				got, ok := rep.e2e[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("end-to-end %s: printed %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			for name, m := range rep.e2e {
				if !(m.Value > 0) {
					t.Errorf("end-to-end %s reads %v; every workload must make it non-zero", name, m.Value)
				}
			}
			if len(rep.e2e) != len(spec.EndToEnd) {
				t.Errorf("printed %d end-to-end metrics, BENCHMARK.json names %d", len(rep.e2e), len(spec.EndToEnd))
			}
			for _, m := range spec.PerLayer {
				got, ok := rep.layers[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s: printed %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			if len(rep.layers) != len(spec.PerLayer) {
				t.Errorf("printed %d per-layer metrics, BENCHMARK.json names %d", len(rep.layers), len(spec.PerLayer))
			}
			checkBreakdown(t, rep.traced)
		})
	}
}

// checkBreakdown: the cadence and refresh parts add up to the traced
// fresh mean; every traced call reached a handler the edge tap saw; on
// cluster-replica exactly the submits to n2-homed projects took the
// forward hop; and client pre + transport + handler (+ forward) + client
// post, each from its own tap, cover at least 90% of each SDK call's
// traced mean.
func checkBreakdown(t *testing.T, r *run) {
	t.Helper()
	bd := r.breakdown()
	if r.publishHook() {
		if r.freshParts == 0 {
			t.Errorf("no fresh samples to split")
		}
		if d := r.cadenceMS + r.refreshMS - r.freshMean; math.Abs(d) > 1e-6*math.Max(1, r.freshMean) {
			t.Errorf("cadence %.3f + refresh %.3f != fresh mean %.3f", r.cadenceMS, r.refreshMS, r.freshMean)
		}
		if r.cadenceMS < 0 || r.refreshMS < 0 {
			t.Errorf("negative fresh part: cadence %.3f refresh %.3f", r.cadenceMS, r.refreshMS)
		}
	}
	for _, op := range []string{opSubmit, r.query} {
		if _, ok := bd[op]; !ok {
			t.Errorf("no traced %s calls", op)
		}
	}
	for _, op := range opKinds {
		parts, ok := bd[op].(map[string]float64)
		if !ok {
			continue
		}
		if parts["calls_without_handler"] != 0 {
			t.Errorf("%s: %v of %v calls linked no handler span", op, parts["calls_without_handler"], parts["calls"])
		}
		if parts["covered"] < 0.9 || parts["covered"] > 1.0001 {
			t.Errorf("%s: parts cover %.4f of the SDK mean: %v", op, parts["covered"], parts)
		}
	}
	toN2 := 0
	for _, p := range r.projs {
		if p.home.name == "n2" {
			toN2 += len(p.sent)
		}
	}
	sub, _ := bd[opSubmit].(map[string]float64)
	if got := sub["forwarded"]; got != float64(toN2) {
		t.Errorf("%v submits were forwarded; %d went to n2-homed projects", got, toN2)
	}
	if r.cfg.workload == "cluster-replica" && toN2 == 0 {
		t.Errorf("no submit went to an n2-homed project")
	}
}

// TestReplaysRepeatExactly: the counts a later change may rest a claim on
// come from single-threaded seeded replays, so running a replay twice on
// the same input gives the same counts.
func TestReplaysRepeatExactly(t *testing.T) {
	tb := genTable(3, 0, 30, 6, 20)
	hits := tb.fixedPlan(3)
	shuffleHITs(3, hits)
	var log []tabular.Answer
	for _, h := range hits {
		log = append(log, h...)
	}
	n0 := len(log) / 3
	none := func(string, time.Time, time.Time) {}

	c1, err := coreReplay(tb.ds.Table, log, n0, defaultRefreshEvery, none)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := coreReplay(tb.ds.Table, log, n0, defaultRefreshEvery, none)
	if err != nil {
		t.Fatal(err)
	}
	if c1.refreshCount == 0 || c1.iters != c2.iters || c1.capped != c2.capped || c1.refreshCount != c2.refreshCount {
		t.Errorf("core replay counts differ: %d/%d/%d vs %d/%d/%d",
			c1.iters, c1.capped, c1.refreshCount, c2.iters, c2.capped, c2.refreshCount)
	}

	var sessions []session
	for _, h := range hits[len(hits)/3:] {
		var cells []tabular.Cell
		for _, a := range h[:4] {
			cells = append(cells, a.Cell)
		}
		sessions = append(sessions, session{worker: h[0].Worker, count: 4, cells: cells})
	}
	a1, err := assignReplay(3, tb.ds.Table, log, n0, defaultRefreshEvery, sessions, none)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := assignReplay(3, tb.ds.Table, log, n0, defaultRefreshEvery, sessions, none)
	if err != nil {
		t.Fatal(err)
	}
	if a1.count == 0 || a1.count != a2.count || len(a1.selects) != len(a2.selects) {
		t.Errorf("assign replay counts differ: %d refreshes/%d selects vs %d/%d",
			a1.count, len(a1.selects), a2.count, len(a2.selects))
	}

	dir := t.TempDir()
	w1, err := walReplay(filepath.Join(dir, "a"), tb.ds.Table.Schema, hits, none)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := walReplay(filepath.Join(dir, "b"), tb.ds.Table.Schema, hits, none)
	if err != nil {
		t.Fatal(err)
	}
	if w1.bytes == 0 || w1.bytes != w2.bytes || w1.answers != w2.answers {
		t.Errorf("wal replay bytes differ: %d/%d vs %d/%d", w1.bytes, w1.answers, w2.bytes, w2.answers)
	}
	if got := dirBytes(filepath.Join(dir, "a")); got != int64(w1.bytes) {
		t.Errorf("wal replay counted %d frame bytes, the log holds %d", w1.bytes, got)
	}
}

// TestQuantiles pins the percentile rules: nearest rank, and a tail below
// 1000 samples reported at the highest percentile with ten beyond it.
func TestQuantiles(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if q := quantile(xs, 0.5); q != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", q)
	}
	if v, p := tail(xs); v != 90 || math.Abs(p-90) > 1e-9 {
		t.Errorf("tail of 100 samples = %v at p%v, want 90 at p90", v, p)
	}
	big := make([]float64, 2000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if v, p := tail(big); v != 1980 || p != 99 {
		t.Errorf("tail of 2000 samples = %v at p%v, want 1980 at p99", v, p)
	}
}

// TestLabelTie pins check (d)'s label rule: a served label other than the
// refit's passes only when the refit's posteriors tie the two within
// contTolerance.
func TestLabelTie(t *testing.T) {
	post := []float64{0.0149, 0.0149, 0.47774, 0.47757, 0.0149}
	for _, c := range []struct {
		served, refit int
		want          bool
	}{
		{3, 2, true},   // 1.7e-4 apart: a tie
		{0, 2, false},  // 0.46 apart
		{5, 2, false},  // not a label of the column
		{-1, 2, false}, // not a label
	} {
		if got := labelTie(c.served, c.refit, post); got != c.want {
			t.Errorf("labelTie(%d, %d) = %v, want %v", c.served, c.refit, got, c.want)
		}
	}
}
