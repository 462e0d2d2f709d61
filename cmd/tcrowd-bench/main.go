// Command tcrowd-bench regenerates the paper's evaluation tables and
// figures on the simulated stand-ins.
//
// Usage:
//
//	tcrowd-bench -exp table7           # one experiment
//	tcrowd-bench -exp fig2,fig5        # several
//	tcrowd-bench -exp all -trials 3    # everything, 3 trials per sweep
//	tcrowd-bench -list                 # show available experiment ids
//	tcrowd-bench -bench-json 0         # hot-path micro-benches -> BENCH_0.json
//	tcrowd-bench -bench-out out.json   # same benches, arbitrary output path
//	tcrowd-bench -compare BENCH_1.json out.json
//	                                   # perf-regression gate: fail on >25%
//	                                   # ns/op or >1 alloc + 0.1% allocs/op
//	                                   # growth in the gated (infer/,
//	                                   # refresh/, ingest/, assign/,
//	                                   # shard/, server/, wal/) series
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"tcrowd/internal/experiments"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		seed      = flag.Int64("seed", 1, "random seed")
		trials    = flag.Int("trials", 0, "trials per sweep point (0 = default)")
		quick     = flag.Bool("quick", false, "shrunken workloads (smoke mode)")
		list      = flag.Bool("list", false, "list experiment ids and exit")
		bench     = flag.Int("bench-json", -1, "run hot-path micro-benches and write BENCH_<n>.json")
		benchOut  = flag.String("bench-out", "", "run hot-path micro-benches and write the results to this path")
		benchOnly = flag.String("bench-only", "", "comma-separated series-name prefixes to run (empty = all); e.g. 'shard/' for the multi-core scheduler series")
		compare   = flag.Bool("compare", false, "compare two -bench-json files (args: baseline candidate); exit non-zero on gated regressions")
		gates     = flag.String("gate", "infer/,refresh/,ingest/,assign/,shard/,server/,wal/", "comma-separated series-name prefixes under the -compare regression gate")
		maxNs     = flag.Float64("max-ns-regress", 0.25, "allowed fractional ns/op growth for gated kernel series in -compare (concurrency/disk-bearing server/, shard/ and wal/ series never tighten below 25%; OS-paced wal/*-never series are ns-exempt)")
		maxAlloc  = flag.Float64("max-alloc-regress", 0.001, "allowed fractional allocs/op growth for gated kernel series in -compare, on top of a 1-alloc absolute slack (absorbs EM-iteration and benchmark-harness wobble; server/ series use a fixed 5%+4 slack because their timed windows race async shard refreshes)")
		waivers   = flag.String("waivers", "", "optional intended-regression declarations for -compare (perf-waivers.json): series prefixes whose gated failures report as WAIVED while the file's baseline_index matches the newest committed BENCH_N.json; stale files are ignored")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "tcrowd-bench: -compare needs exactly two args: baseline.json candidate.json")
			os.Exit(2)
		}
		cfg := compareConfig{maxNsRegress: *maxNs, maxAllocRegress: *maxAlloc}
		w, err := loadWaivers(*waivers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tcrowd-bench: %v\n", err)
			os.Exit(2)
		}
		cfg.waivers = w
		for _, g := range strings.Split(*gates, ",") {
			if g = strings.TrimSpace(g); g != "" {
				cfg.gates = append(cfg.gates, g)
			}
		}
		if err := runCompare(flag.Arg(0), flag.Arg(1), cfg); err != nil {
			fmt.Fprintf(os.Stderr, "tcrowd-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var only []string
	for _, p := range strings.Split(*benchOnly, ",") {
		if p = strings.TrimSpace(p); p != "" {
			only = append(only, p)
		}
	}

	if *benchOut != "" {
		if err := runBenchFile(*benchOut, -1, only); err != nil {
			fmt.Fprintf(os.Stderr, "tcrowd-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *bench >= 0 {
		if err := runBenchJSON(*bench, only); err != nil {
			fmt.Fprintf(os.Stderr, "tcrowd-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := experiments.Config{Seed: *seed, Trials: *trials, Quick: *quick}
	var ids []string
	if *exp == "all" {
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*exp, ",")
	}

	for _, id := range ids {
		id = strings.TrimSpace(id)
		start := time.Now()
		if err := experiments.Run(id, os.Stdout, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "tcrowd-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("(%s completed in %.1fs)\n\n", id, time.Since(start).Seconds())
	}
}
