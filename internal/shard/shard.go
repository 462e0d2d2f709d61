// Package shard partitions a multi-project serving workload across a fixed
// pool of inference workers, giving each project a stable home worker and
// each worker a bounded job queue — the isolation and admission-control
// layer between the HTTP platform and the EM engine.
//
// Motivation. One tcrowd-server process hosts many projects, but before
// this layer every project refresh ran on one shared pool with no admission
// control: a single hot project could queue unbounded refresh work and
// starve every other project. The scheduler fixes both failure modes
// structurally:
//
//   - Isolation: projects are partitioned across N single-goroutine workers
//     by consistent hashing on the project ID, so one project's refresh
//     storm can only ever occupy its own shard; projects on other shards
//     keep refreshing at full speed.
//   - Admission control: each shard's queue is bounded. Once it fills,
//     Submit fails fast with ErrShardSaturated instead of queueing
//     unbounded work — the caller (the HTTP layer) turns that into a 429
//     and the client backs off.
//   - Work collapsing: refresh jobs are idempotent "absorb whatever is in
//     the log now" operations, so multiple pending refreshes for the same
//     key coalesce into one queue entry. A burst of 1000 submissions to one
//     project costs one queued refresh, not 1000; the queue depth is
//     bounded by distinct hot projects, not by traffic.
//
// Jobs must be idempotent read-current-state operations for coalescing to
// be sound: a coalesced waiter observes the effect of a job that started
// after its Submit, which is only equivalent to running its own job if the
// job reads its inputs at execution time (a T-Crowd refresh reads the
// project's append-only log when it runs, so it absorbs everything
// submitted before it started — including the coalesced caller's answers).
//
// Jobs coalesce only while queued: a job that has started executing may
// already have read state, so a Submit landing mid-execution enqueues a
// fresh job behind it. One worker per shard means same-key jobs are
// naturally serialised; job functions never run concurrently with
// themselves for the same key.
//
// Each shard worker may itself fan out inside a job (the EM engine's
// parallel E/M-steps use the internal/pool goroutine pool); pool.Run is
// deadlock-free under saturation because the submitting goroutine works its
// own job, so stacking N shard workers on top of the GOMAXPROCS pool
// oversubscribes gracefully instead of deadlocking.
package shard

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"tcrowd/internal/pool"
)

// Typed scheduler errors.
var (
	// ErrShardSaturated is returned by Submit/SubmitWait when the key's
	// shard queue is full. It is the backpressure signal: callers should
	// shed or delay work (the HTTP layer maps it to 429 Too Many Requests).
	ErrShardSaturated = errors.New("shard: queue saturated")
	// ErrClosed is returned by Submit/SubmitWait after Close began.
	ErrClosed = errors.New("shard: scheduler closed")
	// ErrJobPanicked wraps a recovered job panic — a server-side fault,
	// not a caller mistake (the HTTP layer maps it to 500).
	ErrJobPanicked = errors.New("shard: job panicked")
)

// Options configures New. The zero value is a sensible production default.
type Options struct {
	// Workers is the number of shard workers (and shards — each worker
	// owns exactly one queue). Default: the internal/pool worker count,
	// i.e. GOMAXPROCS at pool start.
	Workers int
	// QueueDepth bounds each shard's pending-job queue; a full queue
	// rejects Submit with ErrShardSaturated. Coalescing means depth is
	// consumed per distinct key, not per call. Default 64.
	QueueDepth int
}

// withDefaults resolves zero fields.
func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = pool.Size()
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	return o
}

// job is one queued unit of work plus everybody waiting on it.
type job struct {
	key string
	run func() error
	// waiters receive the job's error (nil on success) exactly once each.
	// Appended under the shard mutex while the job is queued; read by the
	// worker after dequeue (which also happens under the mutex), so no
	// waiter can be added once the worker owns the job.
	waiters []chan error
}

// shardQueue is one worker's bounded FIFO plus its metrics. All fields are
// guarded by mu.
//
//tcrowd:guardedby mu
type shardQueue struct {
	mu       sync.Mutex
	nonEmpty *sync.Cond
	queue    []*job
	pending  map[string]*job // queued (not yet running) job per key
	max      int
	closing  bool

	// counters (see Metrics for meanings)
	enqueued  uint64
	coalesced uint64
	rejected  uint64
	completed uint64
	failed    uint64
	busyNs    int64
	lastNs    int64
}

// Scheduler partitions keys across shard workers. Safe for concurrent use.
type Scheduler struct {
	ring   ring
	shards []*shardQueue
	wg     sync.WaitGroup
}

// New starts a scheduler with opts.Workers shard workers.
func New(opts Options) *Scheduler {
	opts = opts.withDefaults()
	s := &Scheduler{
		ring:   buildRing(opts.Workers),
		shards: make([]*shardQueue, opts.Workers),
	}
	for i := range s.shards {
		sq := &shardQueue{
			pending: make(map[string]*job),
			max:     opts.QueueDepth,
		}
		sq.nonEmpty = sync.NewCond(&sq.mu)
		s.shards[i] = sq
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			sq.loop()
		}()
	}
	return s
}

// NumShards returns the worker/shard count.
func (s *Scheduler) NumShards() int { return len(s.shards) }

// ShardFor returns the shard index owning key (stable for a fixed worker
// count; consistent under resizing).
func (s *Scheduler) ShardFor(key string) int { return s.ring.locate(key) }

// Submit enqueues fn on key's shard and returns immediately. If a job for
// key is already queued the call coalesces into it (fn is dropped — the
// queued job will observe the same state, see the package comment on
// idempotency) and Submit succeeds. With no queued job and a full queue,
// Submit fails with an error wrapping ErrShardSaturated. fn's error is
// recorded in the shard metrics; use SubmitWait to receive it.
func (s *Scheduler) Submit(key string, fn func() error) error {
	return s.submit(key, key, fn, nil)
}

// SubmitWait enqueues fn like Submit but blocks until the job (or the
// queued job it coalesced into) finishes, returning the job's error.
func (s *Scheduler) SubmitWait(key string, fn func() error) error {
	done := make(chan error, 1)
	if err := s.submit(key, key, fn, done); err != nil {
		return err
	}
	return <-done
}

// SubmitNotifyKeyed enqueues fn on routeKey's shard (so job kinds for one
// entity share its worker and backpressure budget), coalescing only with
// queued jobs of the same jobKey (jobKey == routeKey joins Submit's jobs).
// The returned channel receives the job's error (nil on success) exactly
// once, so the caller can bound its wait while the job runs regardless.
func (s *Scheduler) SubmitNotifyKeyed(routeKey, jobKey string, fn func() error) (<-chan error, error) {
	done := make(chan error, 1)
	if err := s.submit(routeKey, jobKey, fn, done); err != nil {
		return nil, err
	}
	return done, nil
}

func (s *Scheduler) submit(routeKey, key string, fn func() error, done chan error) error {
	shard := s.ring.locate(routeKey)
	sq := s.shards[shard]
	sq.mu.Lock()
	defer sq.mu.Unlock()
	if sq.closing {
		return ErrClosed
	}
	if j, ok := sq.pending[key]; ok {
		sq.coalesced++
		if done != nil {
			j.waiters = append(j.waiters, done)
		}
		return nil
	}
	if len(sq.queue) >= sq.max {
		sq.rejected++
		return fmt.Errorf("%w: shard %d at depth %d (key %q)",
			ErrShardSaturated, shard, len(sq.queue), key)
	}
	j := &job{key: key, run: fn}
	if done != nil {
		j.waiters = append(j.waiters, done)
	}
	sq.queue = append(sq.queue, j)
	sq.pending[key] = j
	sq.enqueued++
	sq.nonEmpty.Signal()
	return nil
}

// Close stops accepting new jobs, drains every shard's queue (all jobs
// already accepted — queued or running — complete, and their waiters are
// notified), and returns when all workers have exited.
func (s *Scheduler) Close() {
	for _, sq := range s.shards {
		sq.mu.Lock()
		sq.closing = true
		sq.nonEmpty.Signal()
		sq.mu.Unlock()
	}
	s.wg.Wait()
}

// loop is the shard worker: dequeue, run, account, notify — until closed
// and drained.
func (sq *shardQueue) loop() {
	for {
		sq.mu.Lock()
		for len(sq.queue) == 0 && !sq.closing {
			sq.nonEmpty.Wait()
		}
		if len(sq.queue) == 0 { // closing and drained
			sq.mu.Unlock()
			return
		}
		j := sq.queue[0]
		sq.queue = sq.queue[1:]
		delete(sq.pending, j.key) // from here on, new submits start a fresh job
		sq.mu.Unlock()

		start := time.Now()
		err := runJob(j.run)
		elapsed := time.Since(start)

		sq.mu.Lock()
		sq.completed++
		if err != nil {
			sq.failed++
		}
		sq.busyNs += elapsed.Nanoseconds()
		sq.lastNs = elapsed.Nanoseconds()
		sq.mu.Unlock()

		for _, w := range j.waiters {
			w <- err // buffered (cap 1), never blocks
		}
	}
}

// runJob executes fn, converting a panic into an error so one bad job
// cannot kill its shard worker (which would silently stall every project
// on the shard).
func runJob(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", ErrJobPanicked, r)
		}
	}()
	return fn()
}

// Metrics is a point-in-time snapshot of one shard's counters.
type Metrics struct {
	// Shard is the shard index.
	Shard int `json:"shard"`
	// Depth is the current number of queued (not yet running) jobs.
	Depth int `json:"depth"`
	// Enqueued counts jobs accepted into the queue (coalesced calls not
	// included).
	Enqueued uint64 `json:"enqueued"`
	// Coalesced counts Submit/SubmitWait calls collapsed into an
	// already-queued job.
	Coalesced uint64 `json:"coalesced"`
	// Rejected counts calls refused with ErrShardSaturated.
	Rejected uint64 `json:"rejected"`
	// Completed counts finished jobs; Failed is the subset that returned
	// an error (or panicked).
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	// BusyNs is total job execution time; LastJobNs the most recent job's.
	// BusyNs/Completed is the shard's mean refresh latency.
	BusyNs    int64 `json:"busy_ns"`
	LastJobNs int64 `json:"last_job_ns"`
}

// Metrics snapshots every shard's counters, indexed by shard.
func (s *Scheduler) Metrics() []Metrics {
	out := make([]Metrics, len(s.shards))
	for i, sq := range s.shards {
		sq.mu.Lock()
		out[i] = Metrics{
			Shard:     i,
			Depth:     len(sq.queue),
			Enqueued:  sq.enqueued,
			Coalesced: sq.coalesced,
			Rejected:  sq.rejected,
			Completed: sq.completed,
			Failed:    sq.failed,
			BusyNs:    sq.busyNs,
			LastJobNs: sq.lastNs,
		}
		sq.mu.Unlock()
	}
	return out
}
