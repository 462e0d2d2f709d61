// Command perfbench is the repository benchmark. It builds the T-Crowd
// platform in-process behind loopback listeners, drives one named workload
// through the Go SDK, checks the outputs against planted truth and a batch
// refit, and prints the result as one JSON object on the last line of
// standard output:
//
//	perfbench -workload crowd-assign -seed 1 -seconds 30 -trace 0
//
// With -trace 0 the object carries the end-to-end metrics of BENCHMARK.json.
// With -trace 1 the workload first runs untraced, then again with spans
// recorded at every layer boundary the benchmark can reach from outside
// (SDK call, RoundTripper, http.Handler, publish hook, shard metrics),
// followed by single-threaded replays of the run's logs through core,
// assign, wal and Platform.SubmitBatch; the object then carries the
// per-layer metrics, and the lines before it give the tracing overhead
// (traced minus untraced, per end-to-end metric) and the span file path.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// out is the directory for scratch state (WAL roots) and span files.
	out string
	// smoke shrinks every workload to a few seconds of tiny tables; the
	// benchmark's own tests use it.
	smoke bool
}

// metric is one named value of the result object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+fmt.Sprint(workloadNames()))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 = print per-layer metrics from a traced run")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for scratch state and span files")
	flag.BoolVar(&cfg.smoke, "smoke", false, "shrink the workload to a few seconds (tests)")
	flag.Parse()
	cfg.trace = trace == 1
	if _, ok := workloads[cfg.workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %v)\n", cfg.workload, workloadNames())
		os.Exit(2)
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		os.Exit(2)
	}
	rep, err := benchmark(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, line := range rep.lines {
		fmt.Println(line)
	}
	b, err := json.Marshal(rep.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// report is what benchmark prints: context lines, then the result object.
type report struct {
	lines []string
	res   result
	// e2e and layers keep the raw metric maps for the tests.
	e2e, layers map[string]metric
	// traced is the traced run (nil without -trace 1), for the tests.
	traced *run
}

// benchmark runs the configured workload once untraced and, with -trace 1,
// once more traced, and assembles the printed report.
func benchmark(cfg config) (*report, error) {
	base, err := execute(cfg, false)
	if err != nil {
		return nil, err
	}
	rep := &report{e2e: base.endToEnd()}
	rep.lines = append(rep.lines, contextLine("context", base.context()))
	if !cfg.trace {
		rep.lines = append(rep.lines, tableLines(rep.e2e)...)
		rep.res = base.result(rep.e2e)
		return rep, nil
	}
	tr, err := execute(cfg, true)
	if err != nil {
		return nil, err
	}
	if err := tr.replay(); err != nil {
		return nil, err
	}
	rep.traced = tr
	rep.layers = tr.perLayer()
	traced := tr.endToEnd()
	overhead := map[string]float64{}
	for name, m := range rep.e2e {
		overhead[name] = traced[name].Value - m.Value
	}
	spans, err := tr.tr.write(cfg)
	if err != nil {
		return nil, err
	}
	rep.lines = append(rep.lines,
		contextLine("traced_context", tr.context()),
		contextLine("tracing_overhead", map[string]any{"workload": cfg.workload, "traced_minus_untraced": overhead}),
		contextLine("breakdown", tr.breakdown()),
		contextLine("spans", map[string]any{"file": spans, "count": len(tr.tr.spans)}),
	)
	rep.lines = append(rep.lines, tableLines(rep.layers)...)
	// The result counts operations and check violations of both runs.
	res := tr.result(rep.layers)
	res.Attempted += base.attempted()
	res.Failed += base.failed()
	res.Correct = res.Correct && base.correct()
	rep.res = res
	return rep, nil
}

// contextLine renders one labelled JSON context line.
func contextLine(label string, v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("# %s: unencodable: %v", label, err)
	}
	return "# " + label + " " + string(b)
}

// tableLines renders metrics as aligned "name value unit" lines, sorted.
func tableLines(ms map[string]metric) []string {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = fmt.Sprintf("#   %-36s %14.6g %s", n, ms[n].Value, ms[n].Unit)
	}
	return out
}

// finite maps a non-finite value (a tail made of failed operations, an
// empty ratio) to a printable number: +Inf to 1e9, NaN to 0.
func finite(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return 0
	case math.IsInf(x, 1):
		return 1e9
	case math.IsInf(x, -1):
		return -1e9
	}
	return x
}
