// Command tcrowd-server runs the AMT-like crowdsourcing platform over HTTP
// (the system architecture of the paper's Fig. 1), serving many projects
// from one process through a sharded inference scheduler.
//
// Usage:
//
//	tcrowd-server -addr :8080                        # in-memory: starts empty
//	tcrowd-server -wal-dir ./wal                     # durable: ack = fsynced
//	tcrowd-server -wal-dir ./wal -fsync interval     # bounded-loss durability
//	tcrowd-server -workers 8 -queue-depth 128        # explicit shard sizing
//	tcrowd-server -retain-generations 16             # deeper pinned-read window
//	tcrowd-server -node-id n1 -peers n1=http://a:8080,n2=http://b:8080 -wal-dir ./wal
//	                                                 # static-membership cluster node
//
// Endpoints — the versioned /v1 wire API (full reference: README.md next
// to this file; wire types: package api; official Go SDK: package client;
// the pre-v1 unversioned aliases were removed this release):
//
//	POST /v1/projects                  register a schema
//	GET  /v1/projects/{id}/tasks       dynamic task assignment (external-HIT)
//	POST /v1/projects/{id}/answers     submit one answer or an atomic batch
//	GET  /v1/projects/{id}/estimates   generation-pinned truth estimates
//	GET  /v1/projects/{id}/snapshot    deprecated alias of /estimates
//	GET  /v1/projects/{id}/watch       generation-bump stream (long-poll / SSE)
//	GET  /v1/projects/{id}/stats       collection progress
//	GET  /v1/stats                     shard-scheduler metrics
//
// Every non-2xx body is a typed error envelope
// {"error":{"code","message","retryable"}} with stable machine codes
// (docs/api-routes.txt lists the full surface and is drift-checked in CI).
//
// # Serving architecture
//
// Projects are partitioned across -workers inference shards by consistent
// hashing on the project ID (internal/shard). Each shard is one worker
// goroutine with a bounded queue of coalescing jobs; every completed
// refresh publishes an immutable, numbered snapshot generation:
//
//   - POST /v1/.../answers validates the whole submission up front
//     (batches are atomic: any invalid row rejects everything with
//     per-item detail), appends to the project's append-only log, and
//     enqueues at most ONE coalescing refresh per request on the
//     project's refresh cadence — it never waits on inference. Recorded
//     answers are always acknowledged 201; a saturated shard surfaces as
//     refresh:"deferred" in-body.
//   - GET /v1/.../tasks scores information gain, outside every lock, on
//     the assignment state each estimate refresh publishes (one model per
//     project). At a refresh boundary it waits at most 2s for the project's
//     estimate refresh; under backpressure it serves the previous state
//     instead of failing.
//   - GET /v1/.../estimates serves one pinned generation per response:
//     by default the latest published snapshot (one atomic pointer load,
//     immune to shard backlog), ?generation= for a retained past state,
//     and a ?cursor= (which encodes the generation) for O(1) pages of a
//     walk that can never span model states. ?min_generation= is
//     refresh-if-stale: a value above the latest routes one coalescing
//     refresh through the shard and waits — the strongly consistent
//     read, and the only one that can 429. Responses carry
//     ETag:"<generation>"; If-None-Match answers 304.
//   - GET /v1/.../watch pushes generation bumps (summary deltas: answers
//     absorbed, cells changed) to consumers instead of them polling:
//     long-poll with ?after=&timeout=, or SSE with Accept:
//     text/event-stream. Slow consumers get intermediate bumps coalesced
//     to the latest event, never an unbounded buffer.
//
// One hot project can saturate only its own shard; other projects keep
// refreshing (isolation), and queue bounds turn overload into fast,
// typed backpressure instead of unbounded memory growth.
//
// # Durability
//
// With -wal-dir, every project keeps a segmented, CRC-framed write-ahead
// log: project creation and every accepted answer batch are appended (and,
// under -fsync=always, fsynced) BEFORE the request is acknowledged, so an
// acknowledged answer survives a hard kill at any instant. At boot the
// logs are replayed — torn tails from a mid-write crash are truncated at
// the last durable record, while corruption before the tail refuses to
// boot rather than silently dropping history. Segments rotate at
// -wal-segment-bytes and rotation schedules a checkpoint compaction on
// the project's shard, bounding both disk use and replay time.
//
// The WAL is the only saved state. Without -wal-dir the server is
// in-memory: it starts empty and its projects end with the process.
//
// # Cluster mode
//
// -node-id plus -peers (a static id=url membership list including this
// node) turn the process into one node of a cluster (internal/cluster):
// the same consistent-hash ring that spreads projects over in-process
// shards now spreads them over nodes. Every project has one home node —
// writes always execute there — and every published snapshot generation
// replicates to the other nodes, which serve the full read surface
// (pinned estimates, ETag/304, watch) from local state. Requests arriving
// at the wrong node are forwarded to the home. A typed 421 not_home
// envelope, which the Go SDK follows automatically, answers only a request
// already forwarded once, a failed hop and a follower's strong read.
// Cluster mode requires -wal-dir: membership changes hand projects off by
// shipping the WAL to the new home. See ARCHITECTURE.md, "Cluster layer".
//
// On SIGINT/SIGTERM the server stops accepting HTTP, drains the shard
// queues, and flushes + fsyncs every WAL regardless of policy. At
// startup, every recovered project with answers gets a coalescing warmup
// refresh enqueued, so the read path serves immediately after restart
// instead of 404ing until the first write.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tcrowd/internal/cluster"
	"tcrowd/internal/cluster/member"
	"tcrowd/internal/platform"
	"tcrowd/internal/wal"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address")
		seed        = flag.Int64("seed", 1, "assignment tie-breaking seed")
		workers     = flag.Int("workers", 0, "inference shard workers (0 = GOMAXPROCS-derived)")
		depth       = flag.Int("queue-depth", 0, "per-shard refresh queue bound (0 = default 64)")
		retain      = flag.Int("retain-generations", 0, "published snapshot generations kept addressable per project for pinned reads (0 = default 8)")
		walDir      = flag.String("wal-dir", "", "write-ahead log directory: answers are persisted before acknowledgement and replayed at boot (empty = no durability)")
		fsync       = flag.String("fsync", "always", "WAL fsync policy: always (ack = durable), interval (bounded loss, background flush), never (OS-paced)")
		walSeg      = flag.Int64("wal-segment-bytes", 0, "WAL segment rotation threshold in bytes; rotation triggers checkpoint compaction (0 = default 4 MiB)")
		fsyncInt    = flag.Duration("fsync-interval", 0, "flush cadence for -fsync=interval (0 = default 100ms)")
		rateLimit   = flag.Float64("rate-limit", 0, "per-worker request rate limit in tokens/sec (1 token = 1 answer or task request; 0 = unlimited); exceeding it answers 429 rate_limited with Retry-After")
		rateBurst   = flag.Float64("rate-burst", 0, "per-worker token-bucket capacity for -rate-limit (0 = max(rate, 1))")
		retainBytes = flag.Int64("retain-bytes", 0, "byte budget for retained snapshot generations per project: old generations evict early when the ring exceeds it (0 = count cap only; the latest generation always survives)")
		nodeID      = flag.String("node-id", "", "this node's id in -peers; both flags together enable cluster mode")
		peers       = flag.String("peers", "", "static cluster membership as id=url,id=url,... including this node; projects are consistent-hashed to their home node, writes route there, reads replicate everywhere")
	)
	flag.Parse()

	members, err := member.Parse(*nodeID, *peers)
	if err != nil {
		fatal(err)
	}
	if members != nil && *walDir == "" {
		// Handoff ships the WAL; without one a membership change would
		// orphan recorded answers on the old home.
		fatal(fmt.Errorf("cluster mode (-peers) requires -wal-dir"))
	}

	opts := platform.Options{Workers: *workers, QueueDepth: *depth, RetainGenerations: *retain, RetainBytes: *retainBytes}
	var p *platform.Platform
	if *walDir != "" {
		policy, err := wal.ParseSyncPolicy(*fsync)
		if err != nil {
			fatal(err)
		}
		opts.WAL = &platform.WALOptions{
			Dir:          *walDir,
			SegmentBytes: *walSeg,
			Policy:       policy,
			Interval:     *fsyncInt,
		}
		recovered, rep, err := platform.Recover(*seed, opts)
		if err != nil {
			fatal(fmt.Errorf("recovering %s: %w", *walDir, err))
		}
		p = recovered
		fmt.Printf("recovered %d projects (%d answers) from %s [fsync=%s]\n",
			rep.Projects, rep.Answers, *walDir, policy)
		for _, id := range rep.TornProjects {
			fmt.Printf("  project %s: torn log tail truncated at last durable record\n", id)
		}
	} else {
		p = platform.NewWithOptions(*seed, opts)
	}

	handler := platform.NewServer(p)
	if *rateLimit > 0 {
		handler.SetRateLimiter(platform.NewRateLimiter(platform.RateLimiterConfig{
			Rate:  *rateLimit,
			Burst: *rateBurst,
		}))
		fmt.Printf("per-worker rate limit: %.3g tokens/sec (burst %.3g)\n", *rateLimit, *rateBurst)
	}
	var root http.Handler = handler
	var node *cluster.Node
	if members != nil {
		node, err = cluster.New(cluster.Options{Members: members, Platform: p, Local: handler})
		if err != nil {
			fatal(err)
		}
		// Boot rebalance: with static membership the only way ownership
		// moved is an operator editing -peers across a restart, so hand off
		// anything no longer homed here (retrying until every peer is up).
		node.StartRebalance()
		root = node
		fmt.Printf("cluster node %s of %d members\n", members.Self().ID, members.Size())
	}
	srv := newHTTPServer(*addr, root)

	done := make(chan os.Signal, 1)
	signal.Notify(done, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-done
		// Graceful stop: let in-flight requests finish (a recorded answer
		// must get its acknowledgment — an aborted connection would make
		// the client retry into a 409), with a bound so a wedged handler
		// can't stall shutdown forever.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			srv.Close()
		}
	}()

	fmt.Printf("tcrowd-server listening on %s (%d inference workers)\n", *addr, p.NumShardWorkers())
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fatal(err)
	}

	// HTTP is stopped: detach the cluster layer first (its shippers hold
	// the publish hook), then drain queued refreshes and fsync the logs.
	if node != nil {
		node.Close()
	}
	if err := p.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "tcrowd-server: closing platform: %v\n", err)
		os.Exit(1)
	}
}

// readHeaderTimeout cuts a client that never finishes its request headers
// (it would hold a connection and a goroutine forever); idleTimeout closes
// idle keep-alive connections. ReadTimeout and WriteTimeout stay unset:
// they would cut /watch SSE streams and long-polls.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "tcrowd-server: %v\n", err)
	os.Exit(1)
}
