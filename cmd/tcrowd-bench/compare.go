package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
)

// Perf-regression gate: `tcrowd-bench -compare BASELINE.json CANDIDATE.json`
// compares two -bench-json result files and fails (non-zero exit) when a
// gated series regressed. Either side may be a comma-separated list of
// result files (repeated runs of one tree): the side then reads, per
// series, as the median ns/op and the median allocs/op over its runs, so
// one slow run of a series cannot fail the gate on its own. Gated series
// are selected by name prefix (gatePrefixes: infer/, refresh/, ingest/,
// assign/, shard/, server/ and wal/ — the serving and durability hot
// paths whose budgets the repo commits to); a series regresses when its
// ns/op grows by more than the allowed fraction (-max-ns-regress, default
// 25%, absorbing CI-runner timing noise) or its allocs/op grows past the
// slack.
//
// ns/op headroom is per-series-class, because run-to-run timing
// variance is. The deterministic kernel series (infer/, ingest/,
// refresh/, assign/) repeat within a few percent on one machine, so they
// take -max-ns-regress at face value — the self-calibrating CI gate runs
// them at a tight 8%. The concurrency-bearing series (server/, shard/)
// and the fsync-bearing wal/ series race goroutine scheduling and real
// disk barriers, so their effective headroom is never tightened below
// 25% regardless of the flag (observed: ±14% on server/estimates-paged
// across back-to-back identical binaries). The wal/*-never series are
// not ns-gated at all: an OS-paced buffered write measures page-cache
// and dirty-writeback state, not this repo's code (observed: +54%
// between two consecutive runs of one binary); their allocs/op — the
// signal that is ours — still gates.
//
// Alloc slack is per-series-class. Kernel series (infer/, ingest/,
// refresh/, assign/) are near-deterministic: the allowed growth is one
// alloc plus 0.1%, absorbing two benign wobbles — the EM iteration count
// a refresh needs can shift by one between runs (observed as ±3 allocs on
// ~8.7k),
// and testing.Benchmark's small-N division lets a single stray runtime
// alloc move the per-op count by one (observed as 58 -> 59 on the infer
// series). Concurrency-bearing series get a wider slack (four allocs plus
// 5%): the server/ timed windows race the asynchronous shard refresh and
// the shard/ ops run 16 concurrent consistency reads, so a scheduling-
// dependent share of goroutine and EM allocations lands inside the
// memstats delta (observed as ±6..22 on ~400-900 across identical
// binaries). A real regression allocates at least once per work item
// (answers per op >> 1), far above both slacks; the
// steady-state-zero-alloc guarantee of the ingest path is pinned exactly
// by its unit test, not by this gate. Gated series present in the baseline
// must exist in the candidate; series new in the candidate are reported
// but never gate.

// gatePrefixes are the series-name prefixes under the regression gate.
var gatePrefixes = []string{"infer/", "refresh/", "ingest/", "assign/", "shard/", "server/", "wal/"}

// maxAllocRegress is the allowed fractional allocs/op growth of a gated
// kernel series, on top of its one-alloc absolute slack.
const maxAllocRegress = 0.001

// loadBenchFile reads a -bench-json result file.
func loadBenchFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(bf.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	return &bf, nil
}

// loadBenchSide reads one side of a compare, a comma-separated list of
// -bench-json files, as one file whose series hold the median ns/op and
// allocs/op over the files that ran them. A single file reads back as
// itself.
func loadBenchSide(paths string) (*benchFile, error) {
	var files []*benchFile
	for _, p := range strings.Split(paths, ",") {
		if p = strings.TrimSpace(p); p == "" {
			continue
		}
		bf, err := loadBenchFile(p)
		if err != nil {
			return nil, err
		}
		files = append(files, bf)
	}
	switch len(files) {
	case 0:
		return nil, fmt.Errorf("no result files in %q", paths)
	case 1:
		return files[0], nil
	}
	out := *files[0]
	out.Benchmarks = make(map[string]benchResult, len(files[0].Benchmarks))
	for _, bf := range files {
		for name := range bf.Benchmarks {
			if _, done := out.Benchmarks[name]; done {
				continue
			}
			var ns, allocs []float64
			for _, other := range files {
				if r, ok := other.Benchmarks[name]; ok {
					ns = append(ns, r.NsPerOp)
					allocs = append(allocs, float64(r.AllocsPerOp))
				}
			}
			r := bf.Benchmarks[name]
			r.NsPerOp = median(ns)
			r.AllocsPerOp = int64(math.Round(median(allocs)))
			out.Benchmarks[name] = r
		}
	}
	return &out, nil
}

// median returns the middle of xs (the mean of the two middles for an
// even count). It sorts xs.
func median(xs []float64) float64 {
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// gated reports whether a series name falls under any gate prefix.
func gated(name string) bool {
	for _, g := range gatePrefixes {
		if strings.HasPrefix(name, g) {
			return true
		}
	}
	return false
}

// nsSlack returns the allowed fractional ns/op growth for a series, given
// the -max-ns-regress value, and whether ns/op gates it at all (see the
// package comment: kernel series take the flag verbatim,
// concurrency/disk-bearing classes floor at 25%, OS-paced wal/*-never
// series are ns-exempt).
func nsSlack(name string, maxNsRegress float64) (frac float64, gated bool) {
	switch {
	case strings.HasSuffix(name, "-never"):
		return 0, false
	case strings.HasPrefix(name, "server/"), strings.HasPrefix(name, "shard/"), strings.HasPrefix(name, "wal/"):
		if maxNsRegress > 0.25 {
			return maxNsRegress, true
		}
		return 0.25, true
	}
	return maxNsRegress, true
}

// allocSlack returns the absolute and fractional allocs/op growth allowed
// for a series: tight for the deterministic kernel series, wider for the
// concurrency-bearing series — server/ (timed windows race asynchronous
// shard refreshes) and shard/ (16 concurrent consistency reads per op) —
// where a scheduling-dependent share of goroutine and EM allocations
// lands inside the memstats delta (see the package comment).
func allocSlack(name string) (abs float64, frac float64) {
	if strings.HasPrefix(name, "server/") || strings.HasPrefix(name, "shard/") {
		return 4, 0.05
	}
	return 1, maxAllocRegress
}

// runCompare prints a comparison table and returns an error when any gated
// series regressed, kernel series by more than maxNsRegress in ns/op.
// basePath and candPath are each one result file or a comma-separated
// list of them (see loadBenchSide).
func runCompare(basePath, candPath string, maxNsRegress float64) error {
	base, err := loadBenchSide(basePath)
	if err != nil {
		return err
	}
	cand, err := loadBenchSide(candPath)
	if err != nil {
		return err
	}

	names := make([]string, 0, len(cand.Benchmarks))
	for name := range cand.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Printf("baseline %s (index %d, %s) vs candidate %s\n",
		basePath, base.Index, base.GoVersion, candPath)
	fmt.Printf("%-32s %14s %14s %8s %14s %8s\n",
		"benchmark", "base ns/op", "cand ns/op", "ns Δ", "allocs b/c", "gate")

	var failures []string
	for _, name := range names {
		c := cand.Benchmarks[name]
		b, inBase := base.Benchmarks[name]
		if !inBase {
			fmt.Printf("%-32s %14s %14.0f %8s %8s/%-5d %8s\n",
				name, "-", c.NsPerOp, "new", "-", c.AllocsPerOp, "-")
			continue
		}
		nsDelta := c.NsPerOp/b.NsPerOp - 1
		status := "ok"
		if gated(name) {
			if nsLimit, nsGated := nsSlack(name, maxNsRegress); nsGated && nsDelta > nsLimit {
				status = "FAIL ns"
				failures = append(failures,
					fmt.Sprintf("%s: ns/op regressed %.1f%% (limit %.0f%%)", name, 100*nsDelta, 100*nsLimit))
			}
			abs, frac := allocSlack(name)
			if float64(c.AllocsPerOp) > float64(b.AllocsPerOp)*(1+frac)+abs {
				if status == "ok" {
					status = "FAIL allocs"
				} else {
					status += "+allocs"
				}
				failures = append(failures,
					fmt.Sprintf("%s: allocs/op regressed %d -> %d", name, b.AllocsPerOp, c.AllocsPerOp))
			}
		} else {
			status = "ungated"
		}
		fmt.Printf("%-32s %14.0f %14.0f %+7.1f%% %8d/%-5d %8s\n",
			name, b.NsPerOp, c.NsPerOp, 100*nsDelta, b.AllocsPerOp, c.AllocsPerOp, status)
	}
	for name := range base.Benchmarks {
		if _, ok := cand.Benchmarks[name]; !ok && gated(name) {
			failures = append(failures, fmt.Sprintf("%s: gated series missing from candidate", name))
		}
	}

	if len(failures) > 0 {
		fmt.Println()
		for _, f := range failures {
			fmt.Printf("REGRESSION: %s\n", f)
		}
		return fmt.Errorf("%d perf regression(s)", len(failures))
	}
	fmt.Println("\nno gated regressions")
	return nil
}
