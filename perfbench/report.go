package main

import (
	"os"
	"runtime"
)

// Units of the printed metrics.
const (
	unitMS    = "ms"
	unitUS    = "us"
	unitS     = "s"
	unitCount = "count"
	unitRatio = "ratio"
	unitBytes = "bytes"
	unitMiB   = "MiB"
)

// endToEnd assembles the end-to-end metrics of one run. Every workload
// makes each of them non-zero with its own traffic: the query is the
// workload's read-side call (run.query), and every workload has answers
// published. Tails and submit latencies are printed in the context line
// only: they did not hold steady enough to gate on.
func (r *run) endToEnd() map[string]metric {
	wall := r.t1.Sub(r.t0).Seconds()
	return map[string]metric{
		"setup_s":       {median(r.setups), unitS},
		"answers_per_s": {float64(r.answers.Load()) / wall, "answers/s"},
		"query_p50_ms":  {finite(quantile(r.ops[r.query].lat.sorted(), 0.5)), unitMS},
		"fresh_p50_ms":  {finite(quantile(r.fresh.sorted(), 0.5)), unitMS},
		"accuracy":      {r.acc, "fraction"},
		"mnad":          {r.mnad, unitRatio},
		"cpu_s":         {r.cpu, unitS},
		"heap_mb":       {r.heapMB, unitMiB},
	}
}

// context is the run's printed context: what ran, where, and how many
// samples stand behind each latency. Every operation kind is listed,
// with 0 samples where the workload does not make it.
func (r *run) context() map[string]any {
	host, _ := os.Hostname()
	lat := map[string]*samples{"fresh": &r.fresh, "loadgen_late": &r.late}
	for _, op := range opKinds {
		lat[op] = &r.ops[op].lat
	}
	latency := map[string]any{}
	tails := map[string]float64{}
	for name, s := range lat {
		xs := s.inOrder()
		v, q, w := windowTail(xs)
		latency[name] = map[string]any{
			"samples": len(xs), "p50_ms": finite(quantile(sortedCopy(xs), 0.5)),
			"tail_ms": finite(v), "tail_percentile": q, "tail_windows": w,
		}
		if q != 99 && s.n() > 0 {
			tails[name] = q
		}
	}
	ctx := map[string]any{
		"workload":        r.cfg.workload,
		"seed":            r.cfg.seed,
		"traced":          r.trace,
		"run_seconds":     r.cfg.seconds,
		"timed_wall_s":    r.t1.Sub(r.t0).Seconds(),
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go_version":      runtime.Version(),
		"host":            host,
		"temp_fs":         r.tempFS,
		"host_cpu_steal":  r.stealShare(),
		"fsync":           r.fsync,
		"setup_reps_s":    r.setups,
		"query":           r.query,
		"latency":         latency,
		"fresh_uncovered": r.uncovered,
		"checks":          r.checks.Load(),
		"violations":      r.bad.Load(),
		"workload_knobs":  r.knobs,
	}
	if len(tails) > 0 {
		// A reported tail below minTailSamples is not a p99: the
		// percentile that was reported instead.
		ctx["tails_below_1000_samples_percentile"] = tails
	}
	if len(r.notes) > 0 {
		ctx["violation_notes"] = r.notes
	}
	return ctx
}

func (r *run) attempted() int64 {
	n := r.checks.Load()
	for _, op := range opKinds {
		a, _ := r.ops[op].counts()
		n += a
	}
	return n
}

func (r *run) failed() int64 {
	n := r.bad.Load()
	for _, op := range opKinds {
		_, f := r.ops[op].counts()
		n += f
	}
	return n
}

func (r *run) correct() bool { return r.failed() == 0 }

func (r *run) result(ms map[string]metric) result {
	return result{Correct: r.correct(), Attempted: r.attempted(), Failed: r.failed(), Metrics: ms}
}

// perLayer assembles the per-layer metrics of a traced, replayed run.
// Metrics of a layer the workload does not reach read 0.
func (r *run) perLayer() map[string]metric {
	r.tr.link()
	calls := r.tr.calls()
	out := map[string]metric{}
	set := func(name string, v float64, unit string) { out[name] = metric{finite(v), unit} }

	lateS := r.late.sorted()
	lateP99, _ := tail(lateS)
	set("loadgen.late_p99_ms", lateP99, unitMS)

	retries := 0
	for _, op := range opKinds {
		var pre, post, tr, fwd []float64
		var leaves []float64
		var bytes int64
		pages := 0
		for _, c := range calls {
			if c.op != op {
				continue
			}
			retries += c.roundTrips - 1
			pre = append(pre, c.pre)
			post = append(post, c.post)
			tr = append(tr, c.transport)
			fwd = append(fwd, c.fwd)
			leaves = append(leaves, c.leafHandlers...)
			bytes += c.bytes
			pages += len(c.leafHandlers)
		}
		set("client."+op+".pre_us", meanOf(pre), unitUS)
		set("client."+op+".post_us", meanOf(post), unitUS)
		set("transport."+op+"_us", meanOf(tr), unitUS)
		set("platform."+op+".handler_us", meanOf(leaves), unitUS)
		sorted := (&samples{xs: leaves}).sorted()
		p99, _ := tail(sorted)
		set("platform."+op+".handler_p99_us", p99, unitUS)
		if op == opRead {
			bpp := 0.0
			if pages > 0 {
				bpp = float64(bytes) / float64(pages)
			}
			set("platform.read.bytes_per_page", bpp, unitBytes)
		}
	}
	set("client.retries", float64(retries), unitCount)

	// Handler-level counts over every node, internal routes included.
	non2xx, forwarded, genApplied := 0, 0, 0
	var fwdUS, genUS, walUS []float64
	var genBytes, walBytes int64
	for _, c := range calls {
		if c.forwarded > 0 {
			forwarded += c.forwarded
			fwdUS = append(fwdUS, c.fwd)
		}
	}
	for _, s := range r.tr.spans {
		if s.Level < levelEdge {
			continue
		}
		if s.Status >= 300 {
			non2xx++
		}
		switch s.Name {
		case "edge.gen":
			genUS = append(genUS, float64(s.dur())/1e3)
			genBytes += s.Bytes
			if s.Status < 300 {
				genApplied++
			}
		case "edge.wal":
			walUS = append(walUS, float64(s.dur())/1e3)
			walBytes += s.Bytes
		}
	}
	set("platform.non2xx", float64(non2xx), unitCount)
	set("platform.submit.direct_us", r.layer["platform.submit.direct_us"], unitUS)

	// Publish hook (single-node workloads).
	pubs, iters, unconv, seenDelta, deltas := 0, 0, 0, 0, 0
	for _, p := range r.projs {
		prev := -1
		for _, o := range p.ev {
			if o.t.After(r.t1) || !r.publishHook() {
				continue
			}
			pubs++
			iters += o.iters
			if !o.conv {
				unconv++
			}
			if prev >= 0 {
				seenDelta += o.seen - prev
				deltas++
			}
			prev = o.seen
		}
	}
	set("platform.publish.count", float64(pubs), unitCount)
	set("platform.publish.answers_per_gen", ratio(float64(seenDelta), float64(deltas)), "answers")
	set("platform.publish.iters_mean", ratio(float64(iters), float64(pubs)), unitCount)
	set("platform.publish.unconverged", float64(unconv), unitCount)
	if r.publishHook() {
		set("platform.fresh.cadence_ms", r.cadenceMS, unitMS)
		set("platform.fresh.refresh_ms", r.refreshMS, unitMS)
	} else {
		set("platform.fresh.cadence_ms", 0, unitMS)
		set("platform.fresh.refresh_ms", 0, unitMS)
	}

	// Shard scheduler deltas over the timed phase.
	var jobs, coal, rej, fail uint64
	var busy int64
	for i := range r.shard1 {
		jobs += r.shard1[i].Completed - r.shard0[i].Completed
		coal += r.shard1[i].Coalesced - r.shard0[i].Coalesced
		rej += r.shard1[i].Rejected - r.shard0[i].Rejected
		fail += r.shard1[i].Failed - r.shard0[i].Failed
		busy += r.shard1[i].BusyNs - r.shard0[i].BusyNs
	}
	set("shard.jobs", float64(jobs), unitCount)
	set("shard.coalesced", float64(coal), unitCount)
	set("shard.rejected", float64(rej), unitCount)
	set("shard.failed", float64(fail), unitCount)
	set("shard.busy_s", float64(busy)/1e9, unitS)
	set("shard.busy_ms_per_job", ratio(float64(busy)/1e6, float64(jobs)), unitMS)
	set("shard.busy_us_per_answer", ratio(float64(busy)/1e3, float64(r.answers.Load())), unitUS)
	set("shard.depth_max", float64(r.depthMax.Load()), unitCount)
	publishes := float64(pubs)
	if !r.publishHook() {
		publishes = r.layer["cluster.home_publishes"]
	}
	set("shard.publish_share", ratio(publishes, float64(jobs)), unitRatio)

	// Replays and directly measured layers.
	for _, name := range replayMetrics {
		set(name.name, r.layer[name.name], name.unit)
	}

	// Cluster layer.
	set("cluster.forwarded", float64(forwarded), unitCount)
	set("cluster.forward_us", meanOf(fwdUS), unitUS)
	set("cluster.gen_posts", float64(len(genUS)), unitCount)
	set("cluster.gen_apply_us", meanOf(genUS), unitUS)
	set("cluster.gen_bytes", ratio(float64(genBytes), float64(len(genUS))), unitBytes)
	set("cluster.gen_ship_share", ratio(float64(genApplied), r.layer["cluster.home_publishes"]), unitRatio)
	set("cluster.wal_pulls", float64(len(walUS)), unitCount)
	set("cluster.wal_ship_us", meanOf(walUS), unitUS)
	set("cluster.wal_ship_bytes", ratio(float64(walBytes), float64(len(walUS))), unitBytes)
	set("cluster.wal_ship_amplification", ratio(float64(walBytes), r.layer["cluster.home_wal_growth"]), unitRatio)
	fh := r.freshHome.sorted()
	fr := r.freshReplica.sorted()
	if r.publishHook() {
		fh, fr = nil, nil
	}
	set("cluster.fresh_home_p50_ms", quantile(fh, 0.5), unitMS)
	set("cluster.fresh_replica_p50_ms", quantile(fr, 0.5), unitMS)

	// Runtime deltas over the timed phase.
	set("runtime.alloc_mb", float64(r.mem1.TotalAlloc-r.mem0.TotalAlloc)/(1<<20), unitMiB)
	set("runtime.gc_cycles", float64(r.mem1.NumGC-r.mem0.NumGC), unitCount)
	set("runtime.gc_pause_ms", float64(r.mem1.PauseTotalNs-r.mem0.PauseTotalNs)/1e6, unitMS)
	return out
}

// publishHook reports whether the run observed publishes through the
// platform's publish hook (single-node workloads); the cluster layer owns
// the hook on cluster-replica, whose observations are reader polls.
func (r *run) publishHook() bool { return r.cfg.workload != "cluster-replica" }

func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// breakdown is the traced run's attribution check: per SDK operation, the
// mean call time, the means of its parts, and what the parts leave
// unattributed; and the two parts of the fresh mean.
func (r *run) breakdown() map[string]any {
	out := map[string]any{}
	for _, op := range opKinds {
		var n, unlinked, forwarded int
		var total, pre, tr, h, fwd, post float64
		for _, c := range r.tr.calls() {
			if c.op != op {
				continue
			}
			n++
			if len(c.leafHandlers) == 0 {
				unlinked++
			}
			forwarded += c.forwarded
			total += c.total
			pre += c.pre
			tr += c.transport
			h += c.handler
			fwd += c.fwd
			post += c.post
		}
		if n == 0 {
			continue
		}
		k := float64(n)
		parts := (pre + tr + h + fwd + post) / k
		out[op] = map[string]float64{
			"calls": k, "sdk_mean_us": total / k, "client_pre_us": pre / k, "transport_us": tr / k,
			"handler_us": h / k, "forward_us": fwd / k, "client_post_us": post / k,
			"remainder_us": total/k - parts, "covered": ratio(parts, total/k),
			"calls_without_handler": float64(unlinked), "forwarded": float64(forwarded),
		}
	}
	out["fresh"] = map[string]float64{
		"answers": float64(r.freshParts), "fresh_mean_ms": r.freshMean,
		"cadence_ms": r.cadenceMS, "refresh_ms": r.refreshMS,
		"remainder_ms": r.freshMean - r.cadenceMS - r.refreshMS,
	}
	return out
}

// metricUnit pairs a replay metric with its unit.
type metricUnit struct{ name, unit string }

// replayMetrics are the per-layer metrics measured by replays, stored in
// run.layer.
var replayMetrics = []metricUnit{
	{"core.cold_fit_ms", unitMS},
	{"core.ingest_us", unitUS},
	{"core.refresh_ms", unitMS},
	{"core.refresh_p99_ms", unitMS},
	{"core.iters_per_refresh", unitCount},
	{"core.capped_refreshes", unitCount},
	{"core.estimates_us", unitUS},
	{"assign.refresh_ms", unitMS},
	{"assign.refreshes", unitCount},
	{"assign.select_us", unitUS},
	{"assign.select_p99_us", unitUS},
	{"wal.append_us", unitUS},
	{"wal.append_p99_us", unitUS},
	{"wal.bytes_per_answer", unitBytes},
	{"wal.recover_ms", unitMS},
}
