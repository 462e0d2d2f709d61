package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tcrowd/api"
	"tcrowd/client"
	"tcrowd/internal/cluster"
	"tcrowd/internal/core"
	"tcrowd/internal/metrics"
	"tcrowd/internal/platform"
	"tcrowd/internal/shard"
	"tcrowd/internal/tabular"
)

// Operation kinds timed at the SDK.
const (
	opSubmit = "submit"
	opTasks  = "tasks"
	opRead   = "read"
)

var opKinds = []string{opSubmit, opTasks, opRead}

// contTolerance is check (d)'s bound on continuous estimates: a served
// value v must lie within contTolerance*max(1, |w|) of the batch refit's
// value w. A served label must equal the refit's, unless the refit itself
// ties the two: its posterior for the served label is within
// contTolerance of its posterior for its own. Two EM fits of one log from
// different starting points (the platform's warm-started refreshes, the
// refit's cold start) can pick either label of such a cell; the context
// line counts these ties.
const contTolerance = 1e-3

// node is one platform served over HTTP on a loopback listener.
type node struct {
	name   string
	p      *platform.Platform
	url    string
	srv    *http.Server
	served chan struct{}
	cl     *cluster.Node
	walDir string
}

// listen opens a loopback listener on a free port.
func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("listen: %w", err)
	}
	return ln, "http://" + ln.Addr().String(), nil
}

// serve starts serving h on ln; traced runs wrap h in the edge tap.
func (r *run) serve(name string, p *platform.Platform, ln net.Listener, url string, h http.Handler) *node {
	if r.trace {
		h = r.tr.edge(name, h)
	}
	n := &node{name: name, p: p, url: url, srv: &http.Server{Handler: h}, served: make(chan struct{})}
	go func() {
		defer close(n.served)
		_ = n.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return n
}

// stopServing closes the listener and every connection, and waits for the
// serve loop to exit.
func (n *node) stopServing() {
	_ = n.srv.Close()
	<-n.served
}

// shutdown stops the node's cluster edge and drains its platform.
func (n *node) shutdown() {
	if n.cl != nil {
		n.cl.Close()
	}
	_ = n.p.Close()
}

// conn is one client connection: an SDK client over a transport capped at
// a single TCP connection, so concurrent calls queue for it in order.
type conn struct {
	c  *client.Client
	tr *http.Transport
}

func (r *run) dial(base string) *conn {
	t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	var rt http.RoundTripper = t
	if r.trace {
		rt = r.tr.roundTripper(t)
	}
	cn := &conn{c: client.New(base, client.WithHTTPClient(&http.Client{Transport: rt})), tr: t}
	r.conns = append(r.conns, cn)
	return cn
}

// project is one project under test and everything observed about it.
type project struct {
	id   string
	t    *table
	home *node
	// pre is the answer batch preloaded in set-up.
	pre []tabular.Answer

	mu sync.Mutex
	// sent holds the batches acknowledged in the timed phase.
	sent []*batch
	// ev holds the publishes the hook saw, in order; reads the states a
	// reader saw (first pages of walks, replica polls), in order.
	ev, reads []obs
	// final is the project's log after the run.
	final []tabular.Answer
	// sessions records crowd-assign's task requests for the assign replay.
	sessions []session
}

// batch is one acknowledged submission.
type batch struct {
	answers  []tabular.Answer
	due, ack time.Time
}

// obs is one observation of a project's published state.
type obs struct {
	t     time.Time
	gen   int
	seen  int
	iters int
	conv  bool
}

func (p *project) preloaded() int { return len(p.pre) }

func (p *project) observe(o obs) {
	p.mu.Lock()
	p.ev = append(p.ev, o)
	p.mu.Unlock()
}

func (p *project) observeRead(o obs) {
	p.mu.Lock()
	p.reads = append(p.reads, o)
	p.mu.Unlock()
}

// run is one execution of a workload, traced or not.
type run struct {
	cfg    config
	trace  bool
	tr     *tracer
	ctx    context.Context
	dir    string
	tempFS string

	ops map[string]*opRec
	// query is the workload's read-side operation, reported as query_*.
	query string
	late  samples // open-loop send lateness, ms
	fresh samples // answer due time -> covering state readable, ms
	// freshHome/freshReplica split cluster freshness by where the reader's
	// node served the project from.
	freshHome, freshReplica samples
	setups                  []float64
	answers                 atomic.Int64

	projs []*project
	// byID is read by the publish hook on shard workers.
	projMu sync.Mutex
	byID   map[string]*project
	nodes  []*node
	conns  []*conn
	fsync  string
	knobs  map[string]any
	notes  []string
	checks atomic.Int64
	bad    atomic.Int64
	noteMu sync.Mutex

	t0, t1       time.Time
	stat0, stat1 []uint64
	cpu, heapMB  float64
	mem0, mem1   runtime.MemStats
	shard0       []shard.Metrics
	shard1       []shard.Metrics
	depthMax     atomic.Int64
	stopSampler  chan struct{}
	samplerDone  chan struct{}
	acc, mnad    float64
	uncovered    int

	// layer holds per-layer values a workload or replay measured directly.
	layer map[string]float64
	// cadence split of the traced fresh mean.
	cadenceMS, refreshMS, freshMean float64
	freshParts                      int
}

// session is one crowd-assign task request and the answers it produced.
type session struct {
	worker tabular.WorkerID
	count  int
	cells  []tabular.Cell
}

func newRun(cfg config, traced bool) (*run, error) {
	dir, err := os.MkdirTemp(cfg.out, "run-"+cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	r := &run{
		cfg: cfg, trace: traced, ctx: context.Background(), dir: dir,
		ops:    map[string]*opRec{},
		byID:   map[string]*project{},
		knobs:  map[string]any{},
		layer:  map[string]float64{},
		fsync:  "none (in-memory platform)",
		tempFS: fsType(dir),
	}
	if traced {
		r.tr = newTracer()
	}
	for _, k := range opKinds {
		r.ops[k] = &opRec{}
	}
	return r, nil
}

// execute runs the configured workload once and tears it down.
func execute(cfg config, traced bool) (*run, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	r, err := newRun(cfg, traced)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.dir)
	err = workloads[cfg.workload](r)
	r.teardown()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	r.computeFresh()
	return r, nil
}

func (r *run) teardown() {
	for _, n := range r.nodes {
		n.stopServing()
	}
	for _, n := range r.nodes {
		n.shutdown()
	}
	for _, c := range r.conns {
		c.tr.CloseIdleConnections()
	}
	r.nodes, r.conns = nil, nil
}

// addProject registers p for bookkeeping.
func (r *run) addProject(p *project) {
	r.projs = append(r.projs, p)
	r.projMu.Lock()
	r.byID[p.id] = p
	r.projMu.Unlock()
}

func (r *run) project(id string) *project {
	r.projMu.Lock()
	defer r.projMu.Unlock()
	return r.byID[id]
}

// check counts one output check; a false ok is a violation (a failed
// operation in the result).
func (r *run) check(ok bool, format string, args ...any) {
	r.checks.Add(1)
	if ok {
		return
	}
	r.bad.Add(1)
	r.noteMu.Lock()
	if len(r.notes) < 20 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
	r.noteMu.Unlock()
}

// call times one SDK call of kind op from due (the send time on closed
// loops, the scheduled time on open loops). Traced runs tag the call with
// a request id the RoundTripper and handler taps carry along.
func (r *run) call(op string, due time.Time, f func(ctx context.Context) error) error {
	ctx := r.ctx
	var id uint64
	var start int64
	if r.trace {
		id = r.tr.newReq()
		ctx = withReq(ctx, id)
		start = r.tr.now()
	}
	err := f(ctx)
	end := time.Now()
	if r.trace {
		r.tr.add(span{Name: "sdk." + op, Req: id, Start: start, End: r.tr.now(), Level: 0, Err: err != nil})
	}
	r.ops[op].record(end.Sub(due), err)
	return err
}

// submit sends one batch for p on c, due at due, and books it.
func (r *run) submit(c *conn, p *project, as []tabular.Answer, due time.Time) error {
	wire := apiAnswers(p.t.ds.Table.Schema, as)
	var resp *api.SubmitAnswersResponse
	err := r.call(opSubmit, due, func(ctx context.Context) error {
		var err error
		resp, err = c.c.SubmitAnswers(ctx, p.id, wire)
		return err
	})
	if err != nil {
		return err // counted against the submit operation by call
	}
	ack := time.Now()
	r.check(resp.Recorded == len(as), "submit %s: recorded %d of %d", p.id, resp.Recorded, len(as))
	r.answers.Add(int64(len(as)))
	p.mu.Lock()
	p.sent = append(p.sent, &batch{answers: as, due: due, ack: ack})
	p.mu.Unlock()
	return nil
}

// preload submits p's set-up batch (untimed) and books it.
func preload(ctx context.Context, c *conn, p *project, batch []tabular.Answer) error {
	if _, err := c.c.SubmitAnswers(ctx, p.id, apiAnswers(p.t.ds.Table.Schema, batch)); err != nil {
		return fmt.Errorf("preload %s: %w", p.id, err)
	}
	p.pre = batch
	return nil
}

// hook is the single-node publish hook: it only timestamps and appends.
func (r *run) hook(meta platform.ProjectMeta, res *platform.InferenceResult, _ api.WatchEvent) {
	if p := r.project(meta.ID); p != nil {
		now := time.Now()
		p.observe(obs{t: now, gen: res.Generation, seen: res.AnswersSeen, iters: res.Iterations, conv: res.Converged})
		if r.trace {
			t := r.tr.now()
			r.tr.add(span{Name: "publish:" + meta.ID, Start: t, End: t})
		}
	}
}

// waitFor polls cond every 5ms until it holds or the deadline passes.
func waitFor(d time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v waiting for %s", d, what)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// published reports whether p's home has published a generation covering
// at least n answers.
func published(p *project, n int) bool {
	res, err := p.home.p.Snapshot(p.id)
	return err == nil && res.AnswersSeen >= n
}

// measureSetup runs build reps times, tearing down every build but the
// last, and books the median as setup_s.
func (r *run) measureSetup(reps int, build func() error) error {
	if r.cfg.smoke {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		if i > 0 {
			r.teardown()
			r.projMu.Lock()
			r.projs, r.byID = nil, map[string]*project{}
			r.projMu.Unlock()
		}
		start := time.Now()
		if err := build(); err != nil {
			return err
		}
		r.setups = append(r.setups, time.Since(start).Seconds())
	}
	return nil
}

// begin opens the timed phase.
func (r *run) begin() {
	for _, p := range r.projs {
		p.mu.Lock()
		p.ev, p.reads = p.ev[:0], p.reads[:0]
		p.mu.Unlock()
	}
	if r.trace {
		r.tr.reset()
		r.stopSampler, r.samplerDone = make(chan struct{}), make(chan struct{})
		go r.sampleDepth()
	}
	r.shard0 = r.shardMetrics()
	runtime.GC()
	runtime.ReadMemStats(&r.mem0)
	r.cpu = -cpuSeconds()
	r.stat0 = hostCPU()
	r.t0 = time.Now()
}

// end closes the timed phase: CPU, live heap after a forced GC, shard and
// runtime deltas.
func (r *run) end() {
	r.t1 = time.Now()
	r.cpu += cpuSeconds()
	r.stat1 = hostCPU()
	r.shard1 = r.shardMetrics()
	if r.trace {
		r.tr.freeze()
		close(r.stopSampler)
		<-r.samplerDone
	}
	runtime.GC()
	runtime.ReadMemStats(&r.mem1)
	r.heapMB = float64(r.mem1.HeapAlloc) / (1 << 20)
}

func (r *run) shardMetrics() []shard.Metrics {
	var out []shard.Metrics
	for _, n := range r.nodes {
		out = append(out, n.p.ShardMetrics()...)
	}
	return out
}

// sampleDepth records the deepest shard queue every 10ms (traced runs).
func (r *run) sampleDepth() {
	defer close(r.samplerDone)
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-r.stopSampler:
			return
		case <-t.C:
			for _, m := range r.shardMetrics() {
				if int64(m.Depth) > r.depthMax.Load() {
					r.depthMax.Store(int64(m.Depth))
				}
			}
		}
	}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// pace is the open-loop generator: it launches send(i, due) in its own
// goroutine at start+i*every for i < n, whatever earlier sends are doing,
// books how late each launch ran, and waits for every send.
func (r *run) pace(start time.Time, every time.Duration, n int, send func(i int, due time.Time)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * every)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		r.late.add(ms(time.Since(due)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			send(i, due)
		}()
	}
	wg.Wait()
}

// dueCount is how many sends an open loop at every fits in the run.
func (r *run) dueCount(every time.Duration) int {
	return int(math.Ceil(r.cfg.seconds * float64(time.Second) / float64(every)))
}

// finish runs after the timed phase: the strongly consistent read of every
// project at its home (check a), quality against planted truth, the batch
// refit comparison (check d) and generation monotonicity (check b).
func (r *run) finish(home func(p *project) *conn) error {
	var accSum, mnadSum float64
	for _, p := range r.projs {
		res, err := home(p).c.Estimates(r.ctx, p.id, client.EstimatesQuery{MinGeneration: api.GenerationFresh})
		if err != nil {
			return fmt.Errorf("strong read %s: %w", p.id, err)
		}
		proj, err := p.home.p.Project(p.id)
		if err != nil {
			return err
		}
		p.final = append([]tabular.Answer(nil), proj.Log.All()...)
		want := p.preloaded()
		for _, b := range p.sent {
			want += len(b.answers)
		}
		r.check(res.AnswersSeen == want && len(p.final) == want,
			"%s: strong read saw %d answers, log holds %d, preloaded+acknowledged %d", p.id, res.AnswersSeen, len(p.final), want)
		grid, err := estimateGrid(p.t.ds.Table, res)
		if err != nil {
			return fmt.Errorf("%s: %w", p.id, err)
		}
		log := tabular.NewAnswerLog()
		log.AddAll(p.final)
		q := metrics.Evaluate(p.t.ds.Table, grid, log)
		accSum += 1 - q.ErrorRate
		mnadSum += q.MNAD
		if err := r.checkRefit(p, grid, log); err != nil {
			return err
		}
		r.checkMonotone(p)
	}
	r.acc = accSum / float64(len(r.projs))
	r.mnad = mnadSum / float64(len(r.projs))
	return nil
}

// estimateGrid lays a full estimates response out as a row x column grid.
func estimateGrid(tbl *tabular.Table, res *api.EstimatesResponse) (metrics.Estimates, error) {
	rowOf := make(map[string]int, tbl.NumRows())
	for i, e := range tbl.Entities {
		rowOf[e] = i
	}
	grid := metrics.NewEstimates(tbl)
	for _, e := range res.Estimates {
		i, ok := rowOf[e.Entity]
		j := tbl.Schema.ColumnIndex(e.Column)
		if !ok || j < 0 {
			return nil, fmt.Errorf("estimate for unknown cell %s/%s", e.Entity, e.Column)
		}
		col := tbl.Schema.Columns[j]
		switch {
		case e.Label != nil:
			k := -1
			for l, name := range col.Labels {
				if name == *e.Label {
					k = l
				}
			}
			if k < 0 {
				return nil, fmt.Errorf("estimate label %q outside column %s", *e.Label, col.Name)
			}
			grid[i][j] = tabular.LabelValue(k)
		case e.Number != nil:
			grid[i][j] = tabular.NumberValue(*e.Number)
		}
	}
	return grid, nil
}

// checkRefit is check (d): the served estimates equal a batch core.Infer
// fit (MaxIter 50) of the same final log: labels exactly or as a tie of
// the refit, continuous values within contTolerance.
func (r *run) checkRefit(p *project, served metrics.Estimates, log *tabular.AnswerLog) error {
	m, err := core.Infer(p.t.ds.Table, log, core.Options{MaxIter: 50})
	if err != nil {
		return fmt.Errorf("refit %s: %w", p.id, err)
	}
	ref := m.Estimates()
	labels, conts, ties, worst := 0, 0, 0, 0.0
	for i := range ref {
		for j, w := range ref[i] {
			v := served[i][j]
			switch w.Kind {
			case tabular.Label:
				labels++
				ok := v.Kind == tabular.Label && v.L == w.L
				if v.Kind == tabular.Label && !ok {
					post, _ := m.PosteriorCat(tabular.Cell{Row: i, Col: j})
					if ok = labelTie(v.L, w.L, post); ok {
						ties++
					}
				}
				r.check(ok, "%s: cell (%d,%d) served label %v, refit %v", p.id, i, j, v, w)
			case tabular.Number:
				conts++
				d := math.Abs(v.X-w.X) / math.Max(1, math.Abs(w.X))
				worst = math.Max(worst, d)
				r.check(v.Kind == tabular.Number && d <= contTolerance, "%s: cell (%d,%d) served %v, refit %v", p.id, i, j, v, w)
			}
		}
	}
	r.knobs["refit_cells"] = addInt(r.knobs["refit_cells"], labels+conts)
	r.knobs["refit_label_ties"] = addInt(r.knobs["refit_label_ties"], ties)
	if prev, ok := r.knobs["refit_worst_rel_diff"].(float64); !ok || worst > prev {
		r.knobs["refit_worst_rel_diff"] = worst
	}
	return nil
}

// labelTie reports whether the refit, with posterior post over a column's
// labels, ties label served with its own label refit within
// contTolerance.
func labelTie(served, refit int, post []float64) bool {
	return served >= 0 && served < len(post) && refit < len(post) && post[refit]-post[served] <= contTolerance
}

func addInt(v any, n int) int {
	if x, ok := v.(int); ok {
		return x + n
	}
	return n
}

// checkMonotone is check (b): generations observed by the hook, and those
// observed by a reader, never go down.
func (r *run) checkMonotone(p *project) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, seq := range [][]obs{p.ev, p.reads} {
		for i := 1; i < len(seq); i++ {
			r.check(seq[i].gen >= seq[i-1].gen, "%s: generation went from %d to %d", p.id, seq[i-1].gen, seq[i].gen)
		}
	}
}

// computeFresh turns acknowledged batches and observations into freshness
// samples: an answer at log index k is fresh once an observation in the
// timed phase covers more than k answers.
func (r *run) computeFresh() {
	type key struct {
		w tabular.WorkerID
		c tabular.Cell
	}
	var cad, ref, tot float64
	type dueFresh struct {
		due time.Time
		f   float64
	}
	var fresh []dueFresh
	for _, p := range r.projs {
		if len(p.final) == 0 {
			continue
		}
		idx := make(map[key]int, len(p.final))
		for i, a := range p.final {
			idx[key{a.Worker, a.Cell}] = i
		}
		src := p.ev
		if !r.publishHook() {
			src = p.reads
		}
		var ev []obs
		for _, o := range src {
			if !o.t.After(r.t1) {
				ev = append(ev, o)
			}
		}
		crossAck := r.crossings(p, func(a tabular.Answer) int { return idx[key{a.Worker, a.Cell}] })
		for bi, b := range p.sent {
			for _, a := range b.answers {
				k := idx[key{a.Worker, a.Cell}]
				e := sort.Search(len(ev), func(i int) bool { return ev[i].seen > k })
				if e == len(ev) {
					r.uncovered++
					continue
				}
				f := ev[e].t.Sub(b.due)
				fresh = append(fresh, dueFresh{b.due, ms(f)})
				if !r.publishHook() {
					// The reader polls n2: n2-homed projects serve
					// locally, n1-homed ones from n2's replica.
					if p.home.name == "n2" {
						r.freshHome.add(ms(f))
					} else {
						r.freshReplica.add(ms(f))
					}
				}
				// Cadence part: due time until the ack of the submit that
				// crossed refresh_every at or after this batch (capped at
				// the covering observation); the rest is queue wait plus
				// refresh. The two parts add up to f by construction.
				c := ev[e].t
				if ca, ok := crossAck[bi]; ok && ca.Before(c) {
					c = ca
				}
				if b.ack.After(c) {
					c = b.ack
				}
				if c.After(ev[e].t) {
					c = ev[e].t
				}
				cad += ms(c.Sub(b.due))
				ref += ms(ev[e].t.Sub(c))
				tot += ms(f)
				r.freshParts++
			}
		}
	}
	// Freshness samples enter in due-time order, for the windowed tail.
	sort.SliceStable(fresh, func(i, j int) bool { return fresh[i].due.Before(fresh[j].due) })
	for _, x := range fresh {
		r.fresh.add(x.f)
	}
	if r.freshParts > 0 {
		n := float64(r.freshParts)
		r.cadenceMS, r.refreshMS, r.freshMean = cad/n, ref/n, tot/n
	}
}

// crossings mirrors the platform's cadence counter over p's log: batches
// in log order add their size, and one that reaches refresh_every resets
// it (and is the submit that enqueued a refresh). It returns, for each
// timed-phase batch index, the ack time of the first crossing batch at or
// after it.
func (r *run) crossings(p *project, pos func(tabular.Answer) int) map[int]time.Time {
	since := len(p.pre)
	if since >= defaultRefreshEvery {
		since = 0
	}
	order := make([]int, len(p.sent))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return pos(p.sent[order[a]].answers[0]) < pos(p.sent[order[b]].answers[0])
	})
	crossed := make([]bool, len(order))
	for k, bi := range order {
		since += len(p.sent[bi].answers)
		if since >= defaultRefreshEvery {
			since = 0
			crossed[k] = true
		}
	}
	out := map[int]time.Time{}
	var next *time.Time
	for k := len(order) - 1; k >= 0; k-- {
		bi := order[k]
		if crossed[k] {
			t := p.sent[bi].ack
			next = &t
		}
		if next != nil {
			out[bi] = *next
		}
	}
	return out
}

// hostCPU reads the machine-wide CPU time counters (user, nice, system,
// idle, iowait, irq, softirq, steal) from /proc/stat; nil elsewhere.
func hostCPU() []uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	out := make([]uint64, 8)
	for i := range out {
		out[i], _ = strconv.ParseUint(f[i+1], 10, 64)
	}
	return out
}

// stealShare is the share of machine CPU time the hypervisor gave to other
// guests during the timed phase (-1 when unknown): context for latency
// tails on a shared host.
func (r *run) stealShare() float64 {
	if r.stat0 == nil || r.stat1 == nil {
		return -1
	}
	var total uint64
	for i := range r.stat1 {
		total += r.stat1[i] - r.stat0[i]
	}
	return ratio(float64(r.stat1[7]-r.stat0[7]), float64(total))
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}
