package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"tcrowd/internal/assign"
	"tcrowd/internal/core"
	"tcrowd/internal/platform"
	"tcrowd/internal/tabular"
	"tcrowd/internal/wal"
)

// walRecBatch is the platform's WAL record type for one answer batch.
const walRecBatch = 3

// recFn records one replayed operation as a span.
type recFn func(name string, start, end time.Time)

// spans returns r's replay span recorder (a no-op when untraced).
func (r *run) spans() recFn {
	return func(name string, start, end time.Time) { r.tr.record(name, start, end) }
}

// replay runs the traced run's single-threaded replays and books their
// metrics in r.layer.
func (r *run) replay() error {
	var cs coreStats
	for _, p := range r.projs {
		s, err := coreReplay(p.t.ds.Table, p.final, p.preloaded(), defaultRefreshEvery, r.spans())
		if err != nil {
			return fmt.Errorf("core replay %s: %w", p.id, err)
		}
		cs.merge(s)
	}
	cs.book(r.layer)
	if r.cfg.workload == "crowd-assign" {
		var as assignStats
		for _, p := range r.projs {
			s, err := assignReplay(r.cfg.seed, p.t.ds.Table, p.final, p.preloaded(), defaultRefreshEvery, p.sessions, r.spans())
			if err != nil {
				return fmt.Errorf("assign replay %s: %w", p.id, err)
			}
			as.refreshes = append(as.refreshes, s.refreshes...)
			as.selects = append(as.selects, s.selects...)
			as.count += s.count
		}
		as.book(r.layer)
	}
	if r.fsync == "always" {
		var ws walStats
		for _, p := range r.projs {
			var batches [][]tabular.Answer
			for _, b := range p.sent {
				batches = append(batches, b.answers)
			}
			s, err := walReplay(filepath.Join(r.dir, "replay-wal", p.id), p.t.ds.Table.Schema, batches, r.spans())
			if err != nil {
				return fmt.Errorf("wal replay %s: %w", p.id, err)
			}
			ws.merge(s)
		}
		ws.book(r.layer)
	}
	return r.replayDirect()
}

// coreStats are the results of replaying logs through core.
type coreStats struct {
	coldFits                    []float64 // ms
	ingests, estimates          []float64 // µs
	refreshes                   []float64 // ms
	iters, refreshCount, capped int
}

func (c *coreStats) merge(o coreStats) {
	c.coldFits = append(c.coldFits, o.coldFits...)
	c.ingests = append(c.ingests, o.ingests...)
	c.estimates = append(c.estimates, o.estimates...)
	c.refreshes = append(c.refreshes, o.refreshes...)
	c.iters += o.iters
	c.refreshCount += o.refreshCount
	c.capped += o.capped
}

func (c *coreStats) book(layer map[string]float64) {
	layer["core.cold_fit_ms"] = meanOf(c.coldFits)
	layer["core.ingest_us"] = meanOf(c.ingests)
	layer["core.refresh_ms"] = meanOf(c.refreshes)
	s := (&samples{xs: c.refreshes}).sorted()
	layer["core.refresh_p99_ms"], _ = tail(s)
	layer["core.iters_per_refresh"] = ratio(float64(c.iters), float64(c.refreshCount))
	layer["core.capped_refreshes"] = float64(c.capped)
	layer["core.estimates_us"] = meanOf(c.estimates)
}

// coreMaxIter is the platform's iteration budget for a published refresh.
const coreMaxIter = 50

// coreReplay is the platform's refresh sequence without contention: a cold
// core.Infer fit of the first n0 answers of log, then, every `every`
// answers, IngestFrom + RefreshIncremental(50) + Estimates on the grown
// log. It is single-threaded and deterministic: the same log gives the
// same iteration counts.
func coreReplay(tbl *tabular.Table, log []tabular.Answer, n0, every int, rec recFn) (coreStats, error) {
	var s coreStats
	shadow := tabular.NewAnswerLog()
	shadow.AddAll(log[:n0])
	start := time.Now()
	m, err := core.Infer(tbl, shadow, core.Options{MaxIter: coreMaxIter})
	if err != nil {
		return s, err
	}
	rec("core.cold_fit", start, time.Now())
	s.coldFits = append(s.coldFits, ms(time.Since(start)))
	for at := n0; at < len(log); at += every {
		shadow.AddAll(log[at:min(at+every, len(log))])
		t0 := time.Now()
		if _, err := m.IngestFrom(shadow); err != nil {
			return s, err
		}
		t1 := time.Now()
		m.RefreshIncremental(coreMaxIter)
		t2 := time.Now()
		_ = m.Estimates()
		t3 := time.Now()
		rec("core.ingest", t0, t1)
		rec("core.refresh", t1, t2)
		rec("core.estimates", t2, t3)
		s.ingests = append(s.ingests, us(t1.Sub(t0)))
		s.refreshes = append(s.refreshes, ms(t2.Sub(t1)))
		s.estimates = append(s.estimates, us(t3.Sub(t2)))
		s.iters += m.Iterations
		s.refreshCount++
		if m.Iterations >= coreMaxIter {
			s.capped++
		}
	}
	return s, nil
}

// assignStats are the results of replaying crowd-assign through assign.
type assignStats struct {
	refreshes, selects []float64 // ms, µs
	count              int
}

func (a *assignStats) book(layer map[string]float64) {
	layer["assign.refresh_ms"] = meanOf(a.refreshes)
	layer["assign.refreshes"] = float64(a.count)
	layer["assign.select_us"] = meanOf(a.selects)
	s := (&samples{xs: a.selects}).sorted()
	layer["assign.select_p99_us"], _ = tail(s)
}

// assignReplay replays crowd-assign's final log and its recorded task
// requests through one assign.TCrowdSystem, single-threaded: each request
// is placed at the log position of its first answer, the engine refreshes
// on the platform's cadence (first request, then whenever `every` answers
// have landed since the last refresh), and Select runs for the request's
// worker. Deterministic for a given log and request list.
func assignReplay(seed int64, tbl *tabular.Table, log []tabular.Answer, n0, every int, sessions []session, rec recFn) (assignStats, error) {
	type key struct {
		w tabular.WorkerID
		c tabular.Cell
	}
	pos := make(map[key]int, len(log))
	for i, a := range log {
		pos[key{a.Worker, a.Cell}] = i
	}
	type req struct {
		at int
		s  session
	}
	var reqs []req
	for _, s := range sessions {
		at := -1
		for _, c := range s.cells {
			if i, ok := pos[key{s.worker, c}]; ok && (at < 0 || i < at) {
				at = i
			}
		}
		if at >= 0 {
			reqs = append(reqs, req{at, s})
		}
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].at < reqs[j].at })

	var st assignStats
	sys := assign.NewTCrowdSystem(seed)
	shadow := tabular.NewAnswerLog()
	shadow.AddAll(log[:n0])
	refreshedAt := -1
	for _, q := range reqs {
		if q.at > shadow.Len() {
			shadow.AddAll(log[shadow.Len():q.at])
		}
		if refreshedAt < 0 || shadow.Len()-refreshedAt >= every {
			t0 := time.Now()
			if err := sys.Refresh(tbl, shadow); err != nil {
				return st, err
			}
			rec("assign.refresh", t0, time.Now())
			st.refreshes = append(st.refreshes, ms(time.Since(t0)))
			st.count++
			refreshedAt = shadow.Len()
		}
		t0 := time.Now()
		_ = sys.Select(q.s.worker, q.s.count, shadow)
		rec("assign.select", t0, time.Now())
		st.selects = append(st.selects, us(time.Since(t0)))
	}
	return st, nil
}

// walStats are the results of replaying batches through the WAL.
type walStats struct {
	appends        []float64 // µs
	bytes, answers int
}

func (w *walStats) merge(o walStats) {
	w.appends = append(w.appends, o.appends...)
	w.bytes += o.bytes
	w.answers += o.answers
}

func (w *walStats) book(layer map[string]float64) {
	layer["wal.append_us"] = meanOf(w.appends)
	s := (&samples{xs: w.appends}).sorted()
	layer["wal.append_p99_us"], _ = tail(s)
	layer["wal.bytes_per_answer"] = ratio(float64(w.bytes), float64(w.answers))
}

// walReplay appends each batch, encoded as the platform encodes it, to a
// fresh WAL in dir with fsync=always. Frame bytes (8-byte header, type
// byte, payload) are counted from the encoding, so they repeat exactly.
func walReplay(dir string, schema tabular.Schema, batches [][]tabular.Answer, rec recFn) (walStats, error) {
	var s walStats
	if err := os.RemoveAll(dir); err != nil {
		return s, err
	}
	l, _, err := wal.Open(dir, wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		return s, err
	}
	for _, b := range batches {
		blob, err := tabular.MarshalAnswers(schema, b)
		if err != nil {
			l.Close()
			return s, err
		}
		t0 := time.Now()
		if _, err := l.Append(wal.Record{Type: walRecBatch, Data: blob}); err != nil {
			l.Close()
			return s, err
		}
		rec("wal.append", t0, time.Now())
		s.appends = append(s.appends, us(time.Since(t0)))
		s.bytes += 8 + 1 + len(blob)
		s.answers += len(b)
	}
	return s, l.Close()
}

// replayDirect replays the run's timed-phase batches, in acknowledgement
// order, through Platform.SubmitBatch on a fresh platform configured like
// the workload's (same projects, default refresh cadence, preload and
// durability), timing each call in-process. Handler time minus this is
// HTTP decode, resolve and encode. With a WAL, the platform is then closed
// and platform.Recover times a restart from the log it left behind.
func (r *run) replayDirect() error {
	opts := platform.Options{}
	if r.fsync == "always" {
		opts.WAL = &platform.WALOptions{Dir: filepath.Join(r.dir, "replay-direct"), Policy: wal.SyncAlways}
	}
	p := platform.NewWithOptions(r.cfg.seed, opts)
	durs, err := r.submitDirect(p)
	if cerr := p.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	r.layer["platform.submit.direct_us"] = meanOf(durs)
	if opts.WAL == nil {
		return nil
	}
	t0 := time.Now()
	rp, rep, err := platform.Recover(r.cfg.seed, opts)
	if err != nil {
		return fmt.Errorf("recover replay: %w", err)
	}
	r.tr.record("wal.recover", t0, time.Now())
	r.layer["wal.recover_ms"] = ms(time.Since(t0))
	want := 0
	for _, pr := range r.projs {
		want += len(pr.final)
	}
	r.check(rep.Projects == len(r.projs) && rep.Answers == want,
		"recover replay: %d projects, %d answers; want %d, %d", rep.Projects, rep.Answers, len(r.projs), want)
	return rp.Close()
}

// submitDirect creates the run's projects on p, preloads them, publishes
// their first generation, and then submits the timed-phase batches in
// acknowledgement order, returning each SubmitBatch call's time in µs.
func (r *run) submitDirect(p *platform.Platform) ([]float64, error) {
	type sub struct {
		id string
		b  *batch
	}
	var subs []sub
	for _, pr := range r.projs {
		_, err := p.CreateProject(pr.id, pr.t.ds.Table.Schema, platform.ProjectConfig{
			Rows: pr.t.ds.Table.NumRows(), UseTCrowdAssignment: r.cfg.workload == "crowd-assign",
		})
		if err != nil {
			return nil, err
		}
		if _, err := p.SubmitBatch(pr.id, pr.pre); err != nil {
			return nil, err
		}
		for _, b := range pr.sent {
			subs = append(subs, sub{pr.id, b})
		}
	}
	for _, pr := range r.projs {
		if _, err := p.RunInference(pr.id); err != nil {
			return nil, err
		}
	}
	sort.SliceStable(subs, func(i, j int) bool { return subs[i].b.ack.Before(subs[j].b.ack) })
	var durs []float64
	for _, s := range subs {
		t0 := time.Now()
		if _, err := p.SubmitBatch(s.id, s.b.answers); err != nil {
			return nil, fmt.Errorf("direct replay %s: %w", s.id, err)
		}
		r.tr.record("platform.submit.direct", t0, time.Now())
		durs = append(durs, us(time.Since(t0)))
	}
	return durs, nil
}
