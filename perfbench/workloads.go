package main

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"tcrowd/api"
	"tcrowd/client"
	"tcrowd/internal/cluster"
	"tcrowd/internal/cluster/member"
	"tcrowd/internal/platform"
	"tcrowd/internal/shard"
	"tcrowd/internal/tabular"
	"tcrowd/internal/wal"
)

// workloads is the benchmark's registry of traffic mixes; BENCHMARK.json
// says why each one is there. Each workload sends only its own traffic,
// over two client connections, and names its query: the one read-side SDK
// call its clients make, reported as query_*.
var workloads = map[string]func(r *run) error{
	"crowd-assign":    crowdAssign,
	"read-pages":      readPages,
	"cluster-replica": clusterReplica,
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// setupReps is how many times a run builds its serving state; setup_s is
// the median. read-pages, whose set-up waits 2-3 s for a cold fit, builds
// it pagesSetupReps times, which keeps its runs near 40 s.
const setupReps, pagesSetupReps = 9, 3

// singleNode serves platform p behind a loopback listener, with the
// benchmark's publish hook installed.
func (r *run) singleNode(p *platform.Platform) (*node, error) {
	ln, url, err := listen()
	if err != nil {
		return nil, err
	}
	n := r.serve("server", p, ln, url, platform.NewServer(p))
	r.nodes = append(r.nodes, n)
	p.SetPublishHook(r.hook)
	return n, nil
}

// crowdAssign: two projects of 100 rows x 6 columns with T-Crowd
// assignment, on one shard worker, each with its own crowd of 60 honest
// workers and FixedAssignment(2) preloaded. Two closed-loop sessions, one
// per project and connection, request 4 tasks for the next worker of that
// project's crowd and submit that worker's answers for exactly those
// cells. Its query is the task request. Sizing: about 195 answers (49
// sessions) a second over both projects, so a 30 s run makes about 1500
// task requests, enough for a p99.
//
// Why two projects on one shard: the loop is bound by that one worker,
// busy for the whole run, so throughput and freshness follow the EM cost
// of the seed's data. With one project, five runs of one seed spread
// freshness by 0.06 but ten seeds by up to 0.21, and the task median by
// 0.12; two tables per run average the data's share (ten seeds: 0.13 and
// 0.07 at most). Both projects share the one queue, where a task request
// still waits for its assign refresh behind estimate refreshes.
func crowdAssign(r *run) error {
	r.query = opTasks
	rows, workers, count := 100, 60, 4
	if r.cfg.smoke {
		rows, workers = 30, 20
	}
	ts := []*table{genTable(r.cfg.seed, 0, rows, 6, workers), genTable(r.cfg.seed, 1, rows, 6, workers)}
	for _, t := range ts {
		t.fixedPlan(2)
	}
	r.knobs["projects"], r.knobs["rows"], r.knobs["cols"], r.knobs["workers"], r.knobs["tasks_per_request"] = len(ts), rows, 6, workers, count
	r.knobs["preloaded"] = len(ts[0].plan) + len(ts[1].plan)
	conns := make([]*conn, len(ts))
	err := r.measureSetup(setupReps, func() error {
		pl := platform.NewWithOptions(r.cfg.seed, platform.Options{})
		n, err := r.singleNode(pl)
		if err != nil {
			return err
		}
		ids := sameShard(pl.NumShardWorkers(), "crowd-", len(ts))
		for k, t := range ts {
			conns[k] = r.dial(n.url)
			if err := conns[k].c.CreateProject(r.ctx, createRequest(ids[k], t, true)); err != nil {
				return err
			}
			p := &project{id: ids[k], t: t, home: n}
			r.addProject(p)
			if err := preload(r.ctx, conns[k], p, t.plan); err != nil {
				return err
			}
		}
		for k, p := range r.projs {
			if err := waitFor(60*time.Second, "generation 1 of "+p.id, func() bool { return published(p, len(p.t.plan)) }); err != nil {
				return err
			}
			if _, err := conns[k].c.Tasks(r.ctx, p.id, string(p.t.ds.Workers[0].ID), count); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	loop := func(c *conn, p *project, deadline time.Time) {
		ws := p.t.ds.Workers
		for i := 0; time.Now().Before(deadline); i++ {
			w := &ws[i%len(ws)]
			due := time.Now()
			var tasks []api.Task
			err := r.call(opTasks, due, func(ctx context.Context) error {
				var err error
				tasks, err = c.c.Tasks(ctx, p.id, string(w.ID), count)
				return err
			})
			if err != nil || len(tasks) == 0 {
				continue
			}
			as := make([]tabular.Answer, len(tasks))
			cells := make([]tabular.Cell, len(tasks))
			for k, tk := range tasks {
				cells[k] = tabular.Cell{Row: tk.Row, Col: p.t.ds.Table.Schema.ColumnIndex(tk.Column)}
				as[k] = p.t.crowd.Answer(w, cells[k])
			}
			p.mu.Lock()
			p.sessions = append(p.sessions, session{worker: w.ID, count: count, cells: cells})
			p.mu.Unlock()
			_ = r.submit(c, p, as, time.Now())
		}
	}
	r.begin()
	deadline := r.t0.Add(r.duration())
	var wg sync.WaitGroup
	for k, p := range r.projs {
		wg.Add(1)
		go func() { defer wg.Done(); loop(conns[k], p, deadline) }()
	}
	wg.Wait()
	r.end()
	// sameShard predicts the platform's routing; its counters confirm it.
	used := 0
	for i := range r.shard1 {
		if r.shard1[i].Enqueued > r.shard0[i].Enqueued {
			used++
		}
	}
	r.check(used == 1, "crowd-assign refreshes ran on %d shards, want 1", used)
	byID := map[string]*conn{}
	for k, p := range r.projs {
		byID[p.id] = conns[k]
	}
	return r.finish(func(p *project) *conn { return byID[p.id] })
}

// sameShard returns the first n ids prefix+"0", prefix+"1", ... that a
// scheduler of the given worker count routes to one shard.
func sameShard(workers int, prefix string, n int) []string {
	s := shard.New(shard.Options{Workers: workers})
	defer s.Close()
	byShard := map[int][]string{}
	for i := 0; ; i++ {
		id := fmt.Sprintf("%s%d", prefix, i)
		k := s.ShardFor(id)
		byShard[k] = append(byShard[k], id)
		if len(byShard[k]) == n {
			return byShard[k]
		}
	}
}

// hitsPerRow is the smallest answers-per-cell k for which rows*k HITs, of
// which the workload sends num/den after set-up, cover n sends.
func hitsPerRow(n, rows, num, den int) int {
	return (n*den + rows*num - 1) / (rows * num)
}

func (r *run) duration() time.Duration { return time.Duration(r.cfg.seconds * float64(time.Second)) }

// readPages: one project of 500 rows x 8 columns (4000 cells), 60
// workers, FixedAssignment(4); setup preloads three answers per cell
// (12000) as one batch and waits for the cold fit to publish. A reader
// walks the latest generation 100 estimates a page, following next_cursor
// through 40 pages, in a closed loop; its page read is the query. A writer
// sends one 25-answer batch of the fourth answers every 3 s at the default
// refresh_every (25), so every batch enqueues a refresh and a generation
// publishes about every 3 s, each one read by tens of walks.
func readPages(r *run) error {
	r.query = opRead
	rows, workers, batchEvery := 500, 60, 3*time.Second
	if r.cfg.smoke {
		rows, workers, batchEvery = 60, 20, 500*time.Millisecond
	}
	t := genTable(r.cfg.seed, 0, rows, 8, workers)
	hits := t.fixedPlan(4)
	var pre, pool []tabular.Answer
	for i, h := range hits {
		if i%4 == 3 {
			pool = append(pool, h...)
		} else {
			pre = append(pre, h...)
		}
	}
	r.knobs["rows"], r.knobs["cols"], r.knobs["workers"], r.knobs["preloaded"] = rows, 8, workers, len(pre)
	r.knobs["page_limit"] = 100
	var rd, wr *conn
	var p *project
	err := r.measureSetup(pagesSetupReps, func() error {
		n, err := r.singleNode(platform.NewWithOptions(r.cfg.seed, platform.Options{}))
		if err != nil {
			return err
		}
		rd, wr = r.dial(n.url), r.dial(n.url)
		if err := rd.c.CreateProject(r.ctx, createRequest("pages", t, false)); err != nil {
			return err
		}
		p = &project{id: "pages", t: t, home: n}
		r.addProject(p)
		if err := preload(r.ctx, wr, p, pre); err != nil {
			return err
		}
		return waitFor(120*time.Second, "cold fit", func() bool { return published(p, len(pre)) })
	})
	if err != nil {
		return err
	}
	const batch = defaultRefreshEvery
	n := min(r.dueCount(batchEvery), len(pool)/batch)
	r.knobs["batch_every_ms"], r.knobs["batch_answers"] = ms(batchEvery), batch
	walks, pages := 0, 0
	r.begin()
	deadline := r.t0.Add(r.duration())
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		r.pace(r.t0, batchEvery, n, func(i int, due time.Time) { _ = r.submit(wr, p, pool[i*batch:(i+1)*batch], due) })
	}()
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			np, ok := r.walk(rd, p)
			pages += np
			if ok {
				walks++
			}
		}
	}()
	wg.Wait()
	r.end()
	r.knobs["walks"], r.knobs["pages_read"] = walks, pages
	return r.finish(func(*project) *conn { return rd })
}

// walk reads one generation-pinned walk of p's estimates, 100 a page,
// checking that every page carries the first page's generation (check c).
func (r *run) walk(c *conn, p *project) (pages int, ok bool) {
	q := client.EstimatesQuery{Limit: 100}
	gen := 0
	for {
		due := time.Now()
		var res *api.EstimatesResponse
		err := r.call(opRead, due, func(ctx context.Context) error {
			var err error
			res, err = c.c.Estimates(ctx, p.id, q)
			return err
		})
		if err != nil {
			return pages, false
		}
		pages++
		if gen == 0 {
			gen = res.Generation
			p.observeRead(obs{t: time.Now(), gen: gen, seen: res.AnswersSeen})
		}
		r.check(res.Generation == gen, "walk pinned to generation %d got a page of %d", gen, res.Generation)
		if res.NextCursor == "" {
			return pages, true
		}
		q = client.EstimatesQuery{Cursor: res.NextCursor, Limit: 100}
	}
}

// clusterReplica: two in-process cluster nodes (default forward routing),
// each recovering its own WAL dir with fsync=always. Eight projects of 60
// rows x 6 columns, four homed on each node (eight rather than four keeps
// each project's log, and with it the WAL segment every replica pull
// re-ships, at the size a 20 s run of four reached), answered with
// FixedAssignment(k): k = 6, or more when the run is long enough to send
// every HIT left after set-up. Setup preloads the first sixth of each
// project at its home and ends when n2 serves generation >= 1 for all of
// them. A writer sends 6-answer HITs to n1 every 30ms (200 answers/s);
// every write to an n2-homed project takes the forward hop. A reader on n2
// sweeps the eight projects every 40ms (200 polls/s), one limit=1 page
// each, back to back on its one connection, and freshness runs from an
// answer's due time to the first n2 poll whose answers_seen covers it.
// The poll is the query: a sweep's first poll is timed from the sweep's
// due time, the others from their send.
//
// Why sweeps: with one poll every 5ms, each poll found both vCPUs idle,
// and its median (about 1.1 ms, against 0.12 ms for a poll sent straight
// after another) was mostly the guest's wake-up latency, which swung
// with host load: two sets of ten runs spread 0.30 and 0.80 of the
// median. Why 200 answers/s, the rate this workload was specified with:
// at 300/s, on five seeds, process CPU spread 0.16 and the median poll
// 0.13, against 0.04 and 0.03 at 200/s, because more polls waited for a
// core busy with refreshes.
func clusterReplica(r *run) error {
	r.query = opRead
	nProj, rows, workers := 8, 60, 30
	if r.cfg.smoke {
		nProj, rows, workers = 4, 20, 12
	}
	const every, sweepEvery = 30 * time.Millisecond, 40 * time.Millisecond
	perCell := max(6, hitsPerRow(r.dueCount(every), nProj*rows, 5, 6))
	r.knobs["answers_per_cell"] = perCell
	r.fsync = "always"
	r.knobs["projects"], r.knobs["rows"], r.knobs["cols"], r.knobs["workers"] = nProj, rows, 6, workers
	r.knobs["hit_every_ms"], r.knobs["sweep_every_ms"] = ms(every), ms(sweepEvery)

	// Project ids: the first two of a fixed sequence the ring homes on
	// each node. The ring hashes member ids, not addresses.
	set, err := member.Parse("n1", "n1=http://127.0.0.1:1,n2=http://127.0.0.1:2")
	if err != nil {
		return err
	}
	var ids []string
	homes := map[string]string{}
	for i, c1, c2 := 0, 0, 0; c1+c2 < nProj; i++ {
		id := fmt.Sprintf("replica-%d", i)
		switch h := set.HomeOf(id).ID; {
		case h == "n1" && c1 < nProj/2:
			c1++
		case h == "n2" && c2 < nProj/2:
			c2++
		default:
			continue
		}
		ids = append(ids, id)
		homes[id] = set.HomeOf(id).ID
	}
	tables := make([]*table, nProj)
	var all [][]tabular.Answer
	projOf := map[*tabular.Answer]int{}
	preOf := make([][]tabular.Answer, nProj)
	for k := range tables {
		tables[k] = genTable(r.cfg.seed, k, rows, 6, workers)
		hits := tables[k].fixedPlan(perCell)
		shuffleHITs(r.cfg.seed+int64(k), hits)
		cut := len(hits) / 6
		for _, h := range hits[:cut] {
			preOf[k] = append(preOf[k], h...)
		}
		for _, h := range hits[cut:] {
			projOf[&h[0]] = k
			all = append(all, h)
		}
	}
	shuffleHITs(r.cfg.seed, all)

	var w, rd *conn
	var nodes map[string]*node
	err = r.measureSetup(setupReps, func() error {
		var err error
		nodes, err = r.startCluster()
		if err != nil {
			return err
		}
		w, rd = r.dial(nodes["n1"].url), r.dial(nodes["n2"].url)
		for k, id := range ids {
			if err := w.c.CreateProject(r.ctx, createRequest(id, tables[k], false)); err != nil {
				return err
			}
			p := &project{id: id, t: tables[k], home: nodes[homes[id]]}
			r.addProject(p)
			at := w
			if homes[id] == "n2" {
				at = rd
			}
			if err := preload(r.ctx, at, p, preOf[k]); err != nil {
				return err
			}
		}
		return waitFor(60*time.Second, "n2 serving every project", func() bool {
			for _, p := range r.projs {
				res, err := nodes["n2"].p.Snapshot(p.id)
				if err != nil || res.Generation < 1 {
					return false
				}
			}
			return true
		})
	})
	if err != nil {
		return err
	}
	homeGen := func() (gens int, walBytes int64) {
		for _, p := range r.projs {
			if res, err := p.home.p.Snapshot(p.id); err == nil {
				gens += res.Generation
			}
			walBytes += dirBytes(filepath.Join(p.home.walDir, p.id))
		}
		return gens, walBytes
	}
	g0, b0 := homeGen()
	n := min(r.dueCount(every), len(all))
	r.begin()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		r.pace(r.t0, every, n, func(i int, due time.Time) {
			h := all[i]
			_ = r.submit(w, r.project(ids[projOf[&h[0]]]), h, due)
		})
	}()
	go func() {
		defer wg.Done()
		r.pace(r.t0.Add(sweepEvery/2), sweepEvery, r.dueCount(sweepEvery), func(_ int, due time.Time) {
			for k, p := range r.projs {
				if k > 0 {
					due = time.Now()
				}
				var res *api.EstimatesResponse
				err := r.call(opRead, due, func(ctx context.Context) error {
					var err error
					res, err = rd.c.Estimates(ctx, p.id, client.EstimatesQuery{Limit: 1})
					return err
				})
				if err == nil {
					p.observeRead(obs{t: time.Now(), gen: res.Generation, seen: res.AnswersSeen})
				}
			}
		})
	}()
	wg.Wait()
	r.end()
	g1, b1 := homeGen()
	r.layer["cluster.home_publishes"] = float64(g1 - g0)
	r.layer["cluster.home_wal_growth"] = float64(b1 - b0)
	return r.finish(func(p *project) *conn {
		if p.home.name == "n2" {
			return rd
		}
		return w
	})
}

// startCluster boots n1 and n2 on loopback listeners, each recovering its
// own WAL root with fsync=always, wrapped in cluster nodes with the
// default forward routing.
func (r *run) startCluster() (map[string]*node, error) {
	lns := map[string]net.Listener{}
	addrs := map[string]string{}
	for _, id := range []string{"n1", "n2"} {
		ln, url, err := listen()
		if err != nil {
			return nil, err
		}
		lns[id], addrs[id] = ln, url
	}
	spec := "n1=" + addrs["n1"] + ",n2=" + addrs["n2"]
	out := map[string]*node{}
	for _, id := range []string{"n1", "n2"} {
		set, err := member.Parse(id, spec)
		if err != nil {
			return nil, err
		}
		dir := filepath.Join(r.dir, fmt.Sprintf("wal-%s-%d", id, len(r.setups)))
		p, _, err := platform.Recover(r.cfg.seed, platform.Options{WAL: &platform.WALOptions{Dir: dir, Policy: wal.SyncAlways}})
		if err != nil {
			return nil, err
		}
		cn, err := cluster.New(cluster.Options{Members: set, Platform: p, Local: platform.NewServer(p), Mode: cluster.RouteForward})
		if err != nil {
			p.Close()
			return nil, err
		}
		n := r.serve(id, p, lns[id], addrs[id], cn)
		n.cl, n.walDir = cn, dir
		r.nodes = append(r.nodes, n)
		out[id] = n
	}
	return out, nil
}
