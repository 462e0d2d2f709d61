package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tcrowd/api"
	"tcrowd/client"
	"tcrowd/internal/assign"
	"tcrowd/internal/core"
	"tcrowd/internal/platform"
	"tcrowd/internal/simulate"
	"tcrowd/internal/stats"
	"tcrowd/internal/tabular"
	"tcrowd/internal/wal"
)

// Machine-readable hot-path benchmarking: `tcrowd-bench -bench-json N`
// re-runs the library's hot-path micro-benchmarks via testing.Benchmark and
// writes BENCH_N.json, so the performance trajectory is tracked across PRs
// (BENCH_0.json is the pre-optimisation seed baseline). The workloads
// mirror bench_test.go's BenchmarkInfer / BenchmarkRefreshWarmVsCold /
// BenchmarkInfoGainScoring exactly.

// benchResult is one benchmark's steady-state cost.
type benchResult struct {
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Metrics carries the benchmark's custom b.ReportMetric units (e.g.
	// the sim/accuracy-spam series' acc_on_pct / acc_off_pct / gap_pct).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// benchFile is the schema of BENCH_<n>.json.
type benchFile struct {
	Index     int    `json:"index"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// Cores is GOMAXPROCS at run time — context for the shard/ multi-core
	// series (a w4 number measured on 2 cores is not comparable to one
	// measured on 8).
	Cores      int                    `json:"cores"`
	Benchmarks map[string]benchResult `json:"benchmarks"`
}

// inferWorkload mirrors bench_test.go's BenchmarkInfer datasets.
func inferWorkload(rows int) (*simulate.Dataset, *tabular.AnswerLog) {
	return inferWorkloadDepth(rows, 5)
}

// inferWorkloadDepth is inferWorkload with a configurable answers-per-cell
// depth: rows x 10 cols x depth answers. Depth 50 on 200 rows yields the
// 100k-answer log of the ingest/refresh-100k-log series, which pins that
// streaming-refresh cost depends on the batch, not the log.
func inferWorkloadDepth(rows, depth int) (*simulate.Dataset, *tabular.AnswerLog) {
	ds := simulate.Generate(stats.NewRNG(23), simulate.TableConfig{
		Rows: rows, Cols: 10, CatRatio: 0.5,
		Population: simulate.PopulationConfig{N: 50},
	})
	return ds, simulate.NewCrowd(ds, 24).FixedAssignment(depth)
}

// hotBenches enumerates the tracked hot-path benchmarks.
func hotBenches() []struct {
	name string
	fn   func(b *testing.B)
} {
	return []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"infer/1k-answers", benchInfer(20)},
		{"infer/10k-answers", benchInfer(200)},
		{"refresh/cold", benchRefresh(false)},
		{"refresh/warm", benchRefresh(true)},
		{"ingest/append-50", benchIngestAppend(200, 50)},
		{"ingest/refresh-batch-10", benchIngestRefresh(200, 5, 10)},
		{"ingest/refresh-batch-50", benchIngestRefresh(200, 5, 50)},
		{"ingest/refresh-batch-200", benchIngestRefresh(200, 5, 200)},
		{"ingest/refresh-5k-log-batch-50", benchIngestRefresh(100, 5, 50)},
		{"ingest/refresh-100k-log-batch-50", benchIngestRefresh(200, 50, 50)},
		{"ingest/polish-batch-50", benchIngestPolish(200, 5, 50)},
		{"ingest/polish-100k-log-batch-50", benchIngestPolish(200, 50, 50)},
		{"shard/refresh-16proj-w1", benchShardRefresh(16, 1)},
		{"shard/refresh-16proj-w2", benchShardRefresh(16, 2)},
		{"shard/refresh-16proj-w4", benchShardRefresh(16, 4)},
		{"wal/append-batch-1-always", benchWALAppendBatch(1, wal.SyncAlways)},
		{"wal/append-batch-50-always", benchWALAppendBatch(50, wal.SyncAlways)},
		{"wal/append-batch-200-always", benchWALAppendBatch(200, wal.SyncAlways)},
		{"wal/append-batch-1-never", benchWALAppendBatch(1, wal.SyncNever)},
		{"wal/append-batch-50-never", benchWALAppendBatch(50, wal.SyncNever)},
		{"wal/append-batch-200-never", benchWALAppendBatch(200, wal.SyncNever)},
		{"wal/group-commit-16proj", benchWALGroupCommit(16, 50)},
		{"server/submit-batch-1", benchServerSubmitBatch(1, false)},
		{"server/submit-batch-50", benchServerSubmitBatch(50, false)},
		{"server/submit-batch-200", benchServerSubmitBatch(200, false)},
		{"server/submit-batch-200-durable", benchServerSubmitBatch(200, true)},
		{"server/estimates-paged-10k", benchServerEstimatesPaged},
		{"server/watch-fanout-32", benchServerWatchFanout(32)},
		{"infogain-scoring", benchInfoGain},
		{"assign/select-structure-100x6", benchSelectStructure},
		{"sim/accuracy-spam-10pct", benchAccuracySpam(0.1, 0, 0.4)},
		{"sim/accuracy-spam-30pct", benchAccuracySpam(0.3, 0, 0.4)},
	}
}

func benchInfer(rows int) func(b *testing.B) {
	return func(b *testing.B) {
		ds, log := inferWorkload(rows)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.Infer(ds.Table, log, core.Options{MaxIter: 10, Tol: 1e-12}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchRefresh measures a refresh after an answer batch lands on an
// already-fitted system: cold re-runs full EM from scratch on the grown
// log, warm is assign.TCrowdSystem's warm rebuild (core.InferWarm seeded
// from the previous model). TCrowdSystem streams into its model when the
// log is the one it was fitted on and rebuilds only for another log, so
// each timed iteration refreshes on a fresh batch appended to a clone of
// the base log (clone excluded from the timing), mirroring bench_test.go's
// BenchmarkRefreshWarmVsCold. The ingest/ series time the streaming path.
func benchRefresh(warm bool) func(b *testing.B) {
	return func(b *testing.B) {
		ds, base := inferWorkload(100)
		sys := assign.NewTCrowdSystem(25)
		if warm {
			if err := sys.Refresh(ds.Table, base); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			log := base.Clone()
			simulate.NewCrowd(ds, 26+int64(i)).AppendBatch(log, 50)
			b.StartTimer()
			if warm {
				if err := sys.Refresh(ds.Table, log); err != nil {
					b.Fatal(err)
				}
			} else {
				if _, err := core.Infer(ds.Table, log, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// benchIngestRefresh measures the streaming refresh of the online loop:
// the assignment system is fitted once, then every timed iteration appends
// a fresh batch to the SAME log object (append untimed) and refreshes —
// which takes the incremental path: suffix ingest into the fitted model's
// CSR store plus a short warm polish, with no per-refresh rebuild. The log
// is reset to its base size periodically (untimed) so per-op cost reflects
// a steady log size. The refresh/warm series is the rebuild counterpart:
// same pipeline, full re-decode per refresh.
func benchIngestRefresh(rows, depth, batch int) func(b *testing.B) {
	return func(b *testing.B) {
		ds, base := inferWorkloadDepth(rows, depth)
		crowd := simulate.NewCrowd(ds, 27)
		var (
			sys   *assign.TCrowdSystem
			log   *tabular.AnswerLog
			grown int
		)
		reset := func() {
			log = base.Clone()
			sys = assign.NewTCrowdSystem(25)
			if err := sys.Refresh(ds.Table, log); err != nil {
				b.Fatal(err)
			}
			grown = 0
		}
		reset()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if grown > 2000 {
				reset()
			}
			crowd.AppendBatch(log, batch)
			grown += batch
			b.StartTimer()
			if err := sys.Refresh(ds.Table, log); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchIngestPolish measures one explicit EM polish iteration over the
// sufficient-statistics store: every timed op ingests a fresh batch and
// runs RefreshIncremental(1), so the M-step re-reads the per-(cell,worker)
// groups instead of the raw log. The 100k-log variant of this series pins
// the O(batch)+O(groups) claim: the polish cost tracks the distinct
// (cell,worker) count, not the answer count, so a 10x deeper log must not
// cost 10x per polish.
func benchIngestPolish(rows, depth, batch int) func(b *testing.B) {
	return func(b *testing.B) {
		ds, base := inferWorkloadDepth(rows, depth)
		crowd := simulate.NewCrowd(ds, 27)
		var (
			m     *core.Model
			log   *tabular.AnswerLog
			grown int
		)
		reset := func() {
			log = base.Clone()
			var err error
			m, err = core.Infer(ds.Table, log, core.Options{MaxIter: 5})
			if err != nil {
				b.Fatal(err)
			}
			grown = 0
		}
		reset()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if grown > 2000 {
				reset()
			}
			crowd.AppendBatch(log, batch)
			grown += batch
			b.StartTimer()
			if _, err := m.IngestFrom(log); err != nil {
				b.Fatal(err)
			}
			m.RefreshIncremental(1)
		}
	}
}

// benchIngestAppend isolates raw ingestion cost (decode + in-place CSR
// merge + dirty tracking, no EM polish): O(batch) work against a large
// fitted store.
func benchIngestAppend(rows, batch int) func(b *testing.B) {
	return func(b *testing.B) {
		ds, base := inferWorkload(rows)
		crowd := simulate.NewCrowd(ds, 28)
		var (
			m     *core.Model
			log   *tabular.AnswerLog
			grown int
		)
		reset := func() {
			log = base.Clone()
			var err error
			m, err = core.Infer(ds.Table, log, core.Options{MaxIter: 5})
			if err != nil {
				b.Fatal(err)
			}
			grown = 0
		}
		reset()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if grown > 5000 {
				reset()
			}
			crowd.AppendBatch(log, batch)
			grown += batch
			b.StartTimer()
			if _, err := m.IngestFrom(log); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchShardRefresh measures multi-project serving throughput through the
// shard scheduler: nproj projects (each with its own fitted model and
// ~900-answer log) live on one platform with the given inference worker
// count; every timed op appends a 20-answer batch to each project (untimed)
// and then drives one strongly consistent refresh per project concurrently
// through the per-shard queues, timing the makespan. Projects are small
// enough that each EM refresh runs serially, so throughput scaling across
// the w1/w2/w4 series isolates the scheduler's cross-project parallelism.
// Logs are reset to their base size periodically (untimed) so per-op cost
// reflects a steady log size.
func benchShardRefresh(nproj, workers int) func(b *testing.B) {
	return func(b *testing.B) {
		ds := simulate.Generate(stats.NewRNG(29), simulate.TableConfig{
			Rows: 30, Cols: 6, CatRatio: 0.5,
			Population: simulate.PopulationConfig{N: 20},
		})
		base := simulate.NewCrowd(ds, 30).FixedAssignment(5)

		var (
			p      *platform.Platform
			ids    []string
			logs   []*tabular.AnswerLog
			crowds []*simulate.Crowd
			grown  int
		)
		reset := func() {
			if p != nil {
				p.Close()
			}
			p = platform.NewWithOptions(1, platform.Options{Workers: workers, QueueDepth: 1024})
			ids = make([]string, nproj)
			logs = make([]*tabular.AnswerLog, nproj)
			crowds = make([]*simulate.Crowd, nproj)
			for i := 0; i < nproj; i++ {
				ids[i] = fmt.Sprintf("proj-%02d", i)
				if _, err := p.CreateProject(ids[i], ds.Table.Schema, platform.ProjectConfig{Rows: ds.Table.NumRows()}); err != nil {
					b.Fatal(err)
				}
				proj, err := p.Project(ids[i])
				if err != nil {
					b.Fatal(err)
				}
				proj.Log = base.Clone()
				logs[i] = proj.Log
				crowds[i] = simulate.NewCrowd(ds, 100+int64(i))
				// Cold fit now so timed ops measure steady-state
				// streaming refreshes.
				if _, err := p.RunInference(ids[i]); err != nil {
					b.Fatal(err)
				}
			}
			grown = 0
		}
		reset()
		defer func() { p.Close() }()
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			b.StopTimer()
			if grown > 2000 {
				reset()
			}
			for i := range logs {
				crowds[i].AppendBatch(logs[i], 20)
			}
			grown += 20
			b.StartTimer()
			var wg sync.WaitGroup
			for _, id := range ids {
				wg.Add(1)
				go func(id string) {
					defer wg.Done()
					if _, err := p.RunInference(id); err != nil {
						b.Error(err)
					}
				}(id)
			}
			wg.Wait()
		}
	}
}

// benchWALAppendBatch measures the durability hot path in isolation: one
// framed append (encode + CRC + write, plus an fsync under SyncAlways)
// per answer batch, against the real filesystem. A batch is ONE record
// however many answers it carries, so the per-answer cost of the
// batch-200 series sits far below batch-1 — the same amortization the
// server batch endpoint pins, extended through the disk. The log is
// rebuilt periodically (untimed) so disk use stays bounded at any b.N.
func benchWALAppendBatch(batch int, policy wal.SyncPolicy) func(b *testing.B) {
	return func(b *testing.B) {
		schema := tabular.Schema{
			Key: "item",
			Columns: []tabular.Column{
				{Name: "c0", Type: tabular.Categorical, Labels: []string{"a", "b", "c"}},
				{Name: "c1", Type: tabular.Continuous, Min: 0, Max: 100},
			},
		}
		answers := make([]tabular.Answer, batch)
		for i := range answers {
			answers[i] = tabular.Answer{
				Worker: tabular.WorkerID(fmt.Sprintf("w%04d", i)),
				Cell:   tabular.Cell{Row: i, Col: i % 2},
				Value:  tabular.NumberValue(float64(i % 100)),
			}
		}
		blob, err := tabular.MarshalAnswers(schema, answers)
		if err != nil {
			b.Fatal(err)
		}
		root, err := os.MkdirTemp("", "tcrowd-wal-bench-")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(root)
		var (
			l    *wal.Log
			dirN int
			ops  int
		)
		reset := func() {
			if l != nil {
				l.Close()
				os.RemoveAll(fmt.Sprintf("%s/log%d", root, dirN))
				dirN++
			}
			var err error
			l, _, err = wal.Open(fmt.Sprintf("%s/log%d", root, dirN), wal.Options{Policy: policy, CheckpointType: 1})
			if err != nil {
				b.Fatal(err)
			}
			ops = 0
		}
		reset()
		defer func() { l.Close() }()
		rec := wal.Record{Type: 3, Data: blob}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ops > 2000 {
				b.StopTimer()
				reset()
				b.StartTimer()
			}
			ops++
			if _, err := l.Append(rec); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchWALGroupCommit measures the -fsync=interval append path with many
// live project logs: nproj SyncInterval logs share ONE background flusher
// (the group-commit registry), so an append is frame + CRC + buffered
// write only — the fsyncs happen off the hot path, batched across every
// dirty log per interval tick. One op is one batch append on one of the
// logs, round-robin, which is the many-projects-one-server shape the
// cluster serves. Compare against wal/append-batch-50-always to see the
// latency the shared flusher buys.
func benchWALGroupCommit(nproj, batch int) func(b *testing.B) {
	return func(b *testing.B) {
		schema := tabular.Schema{
			Key: "item",
			Columns: []tabular.Column{
				{Name: "c0", Type: tabular.Categorical, Labels: []string{"a", "b", "c"}},
				{Name: "c1", Type: tabular.Continuous, Min: 0, Max: 100},
			},
		}
		answers := make([]tabular.Answer, batch)
		for i := range answers {
			answers[i] = tabular.Answer{
				Worker: tabular.WorkerID(fmt.Sprintf("w%04d", i)),
				Cell:   tabular.Cell{Row: i, Col: i % 2},
				Value:  tabular.NumberValue(float64(i % 100)),
			}
		}
		blob, err := tabular.MarshalAnswers(schema, answers)
		if err != nil {
			b.Fatal(err)
		}
		root, err := os.MkdirTemp("", "tcrowd-wal-group-bench-")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(root)
		var (
			logs []*wal.Log
			gen  int
			ops  int
		)
		closeAll := func() {
			for _, l := range logs {
				l.Close()
			}
			logs = nil
		}
		reset := func() {
			closeAll()
			os.RemoveAll(fmt.Sprintf("%s/gen%d", root, gen))
			gen++
			for i := 0; i < nproj; i++ {
				l, _, err := wal.Open(fmt.Sprintf("%s/gen%d/p%02d", root, gen, i), wal.Options{
					Policy: wal.SyncInterval, Interval: 10 * time.Millisecond, CheckpointType: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				logs = append(logs, l)
			}
			ops = 0
		}
		reset()
		defer closeAll()
		rec := wal.Record{Type: 3, Data: blob}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ops > 2000*nproj {
				b.StopTimer()
				reset()
				b.StartTimer()
			}
			ops++
			if _, err := logs[i%nproj].Append(rec); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchServerSubmitBatch measures one wire-level answer submission of the
// given batch size through the full stack: the v1 client SDK -> JSON ->
// HTTP -> server validation -> atomic log append -> one coalesced refresh
// enqueue. The project refreshes every answer (RefreshEvery 1), so a
// batch of N amortizes both the per-request JSON/HTTP overhead and the
// refresh enqueue N ways — the batch-200 series costs far less than 200x
// the batch-1 series, which is the amortization claim the BENCH series
// pins. Every op submits from a fresh worker id (double answers would
// 409), and each op's refresh polishes over every worker so far, so the
// platform is rebuilt (untimed) every submitBatchWindow ops: the timed
// loop then sees the same log sizes whatever b.N testing.Benchmark picks.
//
// With durable=true the platform writes a real fsync=always WAL: the
// batch is framed, CRC'd, written, and fsynced before the 201 — the
// whole durability tax is ONE record append per request, which is the
// acceptance claim of the durable series (within 2x of the in-memory
// batch-200 per answer).
func benchServerSubmitBatch(batch int, durable bool) func(b *testing.B) {
	const submitBatchWindow = 64
	return func(b *testing.B) {
		schema := tabular.Schema{
			Key: "item",
			Columns: []tabular.Column{
				{Name: "c0", Type: tabular.Categorical, Labels: []string{"a", "b", "c"}},
				{Name: "c1", Type: tabular.Continuous, Min: 0, Max: 100},
				{Name: "c2", Type: tabular.Categorical, Labels: []string{"x", "y"}},
				{Name: "c3", Type: tabular.Continuous, Min: 0, Max: 100},
			},
		}
		const rows = 60 // 240 cells >= the largest batch
		cols := schema.Columns
		// One reusable batch template; only the worker id changes per op.
		answers := make([]api.Answer, batch)
		for i := range answers {
			row, j := i/len(cols), i%len(cols)
			if cols[j].Type == tabular.Categorical {
				answers[i] = api.LabelAnswer("", row, cols[j].Name, cols[j].Labels[i%len(cols[j].Labels)])
			} else {
				answers[i] = api.NumberAnswer("", row, cols[j].Name, float64(10+i%80))
			}
		}
		var (
			p   *platform.Platform
			srv *httptest.Server
			c   *client.Client
			op  int
		)
		var walRoot string
		if durable {
			var err error
			walRoot, err = os.MkdirTemp("", "tcrowd-srv-wal-bench-")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(walRoot)
		}
		walGen := 0
		reset := func() {
			if srv != nil {
				srv.Close()
				p.Close()
			}
			opts := platform.Options{Workers: 1, QueueDepth: 4096}
			if durable {
				// A fresh WAL dir per reset: the old incarnation's log would
				// otherwise refuse the duplicate project create.
				os.RemoveAll(fmt.Sprintf("%s/gen%d", walRoot, walGen))
				walGen++
				opts.WAL = &platform.WALOptions{
					Dir:    fmt.Sprintf("%s/gen%d", walRoot, walGen),
					Policy: wal.SyncAlways,
				}
			}
			p = platform.NewWithOptions(1, opts)
			srv = httptest.NewServer(platform.NewServer(p))
			c = client.New(srv.URL)
			if _, err := p.CreateProject("bench", schema, platform.ProjectConfig{Rows: rows, RefreshEvery: 1}); err != nil {
				b.Fatal(err)
			}
		}
		reset()
		defer func() { srv.Close(); p.Close() }()
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			b.StopTimer()
			if n > 0 && n%submitBatchWindow == 0 {
				reset()
			}
			w := fmt.Sprintf("w%07d", op)
			op++
			for i := range answers {
				answers[i].Worker = w
			}
			b.StartTimer()
			var (
				res *api.SubmitAnswersResponse
				err error
			)
			if batch == 1 {
				res, err = c.SubmitAnswer(ctx, "bench", answers[0])
			} else {
				res, err = c.SubmitAnswers(ctx, "bench", answers)
			}
			if err != nil {
				b.Fatal(err)
			}
			if res.Recorded != batch {
				b.Fatalf("recorded %d/%d", res.Recorded, batch)
			}
		}
	}
}

// benchServerEstimatesPaged measures the generation-pinned read path at
// the wire: a full paged walk (limit 250 over a 2000-cell, 10k-answer
// fitted model — 8+ GETs following next_cursor) through the client SDK
// against a live server. The walk is served entirely from the pinned
// immutable snapshot: no platform lock, no shard queue, no EM — per-op
// cost is pages x (HTTP + JSON render), independent of write traffic.
func benchServerEstimatesPaged(b *testing.B) {
	ds, log := inferWorkload(200) // 200 rows x 10 cols, ~10k answers
	p := platform.NewWithOptions(1, platform.Options{Workers: 1})
	defer p.Close()
	if _, err := p.CreateProject("bench", ds.Table.Schema, platform.ProjectConfig{Rows: ds.Table.NumRows()}); err != nil {
		b.Fatal(err)
	}
	proj, err := p.Project("bench")
	if err != nil {
		b.Fatal(err)
	}
	proj.Log = log
	if _, err := p.RunInference("bench"); err != nil { // publish generation 1
		b.Fatal(err)
	}
	srv := httptest.NewServer(platform.NewServer(p))
	defer srv.Close()
	c := client.New(srv.URL)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		est, err := c.AllEstimates(ctx, "bench", 250, client.EstimatesQuery{})
		if err != nil {
			b.Fatal(err)
		}
		if len(est.Estimates) == 0 || est.Generation != 1 {
			b.Fatalf("walk result: %d estimates, generation %d", len(est.Estimates), est.Generation)
		}
	}
}

// benchServerWatchFanout measures push-based delivery end to end: one
// answer submission (RefreshEvery 1, so it publishes a new generation)
// fanned out to `watchers` concurrent SSE streams through the client SDK,
// timed until every stream has observed the bump — the submit -> refresh
// -> publish -> notify -> 32x (marshal + SSE write + parse) pipeline.
func benchServerWatchFanout(watchers int) func(b *testing.B) {
	return func(b *testing.B) {
		schema := tabular.Schema{
			Key: "item",
			Columns: []tabular.Column{
				{Name: "c0", Type: tabular.Categorical, Labels: []string{"a", "b"}},
				{Name: "c1", Type: tabular.Continuous, Min: 0, Max: 100},
			},
		}
		var (
			p      *platform.Platform
			srv    *httptest.Server
			c      *client.Client
			cancel context.CancelFunc
			chans  []<-chan api.WatchEvent
			gen    int
			op     int
		)
		await := func(target int) {
			for _, ch := range chans {
				for ev := range ch {
					if ev.Generation >= target {
						break
					}
				}
			}
		}
		teardown := func() {
			if srv == nil {
				return
			}
			cancel()
			srv.Close()
			p.Close()
		}
		reset := func() {
			teardown()
			p = platform.NewWithOptions(1, platform.Options{Workers: 1, QueueDepth: 4096})
			srv = httptest.NewServer(platform.NewServer(p))
			c = client.New(srv.URL)
			if _, err := p.CreateProject("bench", schema, platform.ProjectConfig{Rows: 3, RefreshEvery: 1}); err != nil {
				b.Fatal(err)
			}
			var ctx context.Context
			ctx, cancel = context.WithCancel(context.Background())
			// Publish generation 1 so watchers have a catch-up event.
			if _, err := c.SubmitAnswer(ctx, "bench", api.NumberAnswer("seed", 0, "c1", 42)); err != nil {
				b.Fatal(err)
			}
			if _, err := c.Estimates(ctx, "bench", client.EstimatesQuery{MinGeneration: api.GenerationFresh}); err != nil {
				b.Fatal(err)
			}
			chans = chans[:0]
			for i := 0; i < watchers; i++ {
				evs, _ := c.WatchStream(ctx, "bench", 0)
				chans = append(chans, evs)
			}
			gen = 1
			await(gen) // drain every watcher's catch-up event
		}
		reset()
		defer teardown()
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			b.StopTimer()
			if gen > 500 {
				reset()
			}
			w := fmt.Sprintf("w%07d", op)
			op++
			b.StartTimer()
			if _, err := c.SubmitAnswer(ctx, "bench", api.NumberAnswer(w, op%3, "c1", float64(10+op%80))); err != nil {
				b.Fatal(err)
			}
			gen++
			await(gen)
		}
	}
}

func benchInfoGain(b *testing.B) {
	ds, log := inferWorkload(60)
	m, err := core.Infer(ds.Table, log, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	u := m.WorkerIDs[0]
	cells := ds.Table.Cells()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cells {
			assign.InfoGain(m, u, c)
		}
	}
}

// benchSelectStructure measures one served task selection: structure-
// aware Select on a published 100x6 state, given the arriving worker's own
// answers (what GET /tasks scores). Each op serves the next worker of the
// log in turn, so the series covers newcomers and long histories alike.
func benchSelectStructure(b *testing.B) {
	ds := simulate.Generate(stats.NewRNG(23), simulate.TableConfig{
		Rows: 100, Cols: 6, CatRatio: 0.5,
		Population: simulate.PopulationConfig{N: 30},
	})
	log := simulate.NewCrowd(ds, 24).FixedAssignment(3)
	m, err := core.Infer(ds.Table, log, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	st := assign.NewState(m, log.Prefix(), m.Estimates(), true)
	workers := append(log.Workers(), "newcomer")
	answers := make([][]tabular.Answer, len(workers))
	for i, u := range workers {
		answers[i] = log.ByWorker(u)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := i % len(workers)
		assign.StructureIG{}.SelectAnswers(st, workers[w], answers[w], 6)
	}
}

// runBenchJSON executes the hot-path benchmarks and writes BENCH_<n>.json.
func runBenchJSON(n int, only []string) error {
	return runBenchFile(fmt.Sprintf("BENCH_%d.json", n), n, only)
}

// benchSelected reports whether a series name passes the -bench-only
// filter (empty filter = run everything). Prefix match, same convention
// as compare.go's gatePrefixes, so "-bench-only shard/" runs exactly the
// multi-core scheduler series.
func benchSelected(name string, only []string) bool {
	if len(only) == 0 {
		return true
	}
	for _, p := range only {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// runBenchFile executes the hot-path benchmarks and writes the results to
// an arbitrary path (the CI perf gate benches the PR into a scratch file
// and compares it against the latest committed baseline).
func runBenchFile(path string, n int, only []string) error {
	out := benchFile{
		Index:      n,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Cores:      runtime.GOMAXPROCS(0),
		Benchmarks: make(map[string]benchResult),
	}
	for _, hb := range hotBenches() {
		if !benchSelected(hb.name, only) {
			continue
		}
		fmt.Fprintf(os.Stderr, "benchmarking %s ...\n", hb.name)
		r := testing.Benchmark(hb.fn)
		res := benchResult{
			N:           r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if len(r.Extra) > 0 {
			res.Metrics = make(map[string]float64, len(r.Extra))
			for k, v := range r.Extra {
				res.Metrics[k] = v
			}
		}
		out.Benchmarks[hb.name] = res
		fmt.Fprintf(os.Stderr, "  %s: %.0f ns/op  %d B/op  %d allocs/op\n",
			hb.name, res.NsPerOp, r.AllocedBytesPerOp(), r.AllocsPerOp())
		for k, v := range res.Metrics {
			fmt.Fprintf(os.Stderr, "    %s: %.2f\n", k, v)
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
