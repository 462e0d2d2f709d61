// Package platform implements the crowdsourcing-platform substrate of the
// paper's system architecture (Fig. 1): a requester registers the schema of
// the tabular data to collect, tasks are published, incoming workers are
// dynamically assigned cells (the AMT "external-HIT" pattern, Sec. 3), their
// answers are logged durably, and truth inference runs over the collected
// answers on demand.
//
// # Multi-project serving
//
// A platform hosts many projects and serves them through a shard scheduler
// (internal/shard): every project has a stable home shard (consistent
// hashing on the project ID), and each shard is one worker goroutine with a
// bounded, coalescing queue of refresh jobs. This gives three serving
// properties the shared-pool design lacked:
//
//   - Isolation: a hot project's refresh storm occupies only its own shard;
//     projects on other shards keep refreshing.
//   - Backpressure: when a shard queue fills, the platform sheds refresh
//     work with an error wrapping shard.ErrShardSaturated instead of
//     queueing it unboundedly (answers are still recorded — data is never
//     dropped, only inference work is).
//   - Non-blocking reads: every completed refresh publishes an immutable
//     InferenceResult snapshot behind an atomic pointer (copy-on-publish);
//     Snapshot serves the latest one without ever waiting on EM.
//
// Submit enqueues an asynchronous refresh on the project's refresh cadence
// (immediately until a first snapshot exists, then every RefreshEvery-th
// answer), so published snapshots track the log with bounded lag without
// running EM per answer. RunInference is the strongly consistent read: it
// routes through the same per-shard queue and waits, returning estimates
// that reflect every answer recorded before the call.
//
// # Lock order
//
// When both are needed, a project's inferMu is acquired before the
// platform mutex (refreshProject and replicated applies hold inferMu while
// briefly taking p.mu to take the answer log's prefix or update counters);
// the reverse order would deadlock against them. The directive below makes
// tcrowd-lint enforce it.
//
//tcrowd:lockorder Project.inferMu < Platform.mu
package platform

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tcrowd/api"
	"tcrowd/internal/assign"
	"tcrowd/internal/core"
	"tcrowd/internal/metrics"
	"tcrowd/internal/reputation"
	"tcrowd/internal/shard"
	"tcrowd/internal/stats"
	"tcrowd/internal/tabular"
	"tcrowd/internal/wal"
)

// Common errors.
var (
	ErrNoProject       = errors.New("platform: no such project")
	ErrDuplicateID     = errors.New("platform: project id already exists")
	ErrAlreadyAnswered = errors.New("platform: worker already answered this cell")
	// ErrNoSnapshot is returned by Snapshot before the project's first
	// refresh has published estimates (and by SnapshotAt for a generation
	// newer than anything published).
	ErrNoSnapshot = errors.New("platform: no estimates published yet")
	// ErrGenerationGone is returned by SnapshotAt when the requested
	// generation has been evicted from the retained ring: the caller's
	// pinned read outlived the retention window and must restart from the
	// latest generation.
	ErrGenerationGone = errors.New("platform: generation evicted from retained ring")
	// ErrWorkerBanned rejects submissions (and task requests) from a
	// worker the project's reputation engine has auto-banned. Bans are
	// sticky and survive crash recovery, so the error is not retryable.
	ErrWorkerBanned = errors.New("platform: worker is banned")
	// ErrRateLimited rejects a request that exceeded the server's
	// per-worker token-bucket rate limit. Retryable after backoff.
	ErrRateLimited = errors.New("platform: rate limit exceeded")
)

// Project is one crowdsourcing campaign: a table to fill plus its answers.
type Project struct {
	ID    string
	Table *tabular.Table
	Log   *tabular.AnswerLog

	// tcrowd enables structure-aware T-Crowd task assignment over the
	// project's estimate model; otherwise tasks are served
	// fewest-answers-first with random tie-breaking (the CrowdDB/Deco-style
	// default). Immutable after creation.
	tcrowd bool
	// refreshEvery controls how many submissions may elapse between
	// inference refreshes.
	refreshEvery int
	// sinceRefresh counts submissions since the last enqueued refresh.
	//tcrowd:guardedby Platform.mu
	sinceRefresh int
	// fsyncPolicy is the project's durability override ("always",
	// "interval", "never"; empty = platform default). Immutable after
	// creation; recorded in the WAL create record so recovery reopens
	// the log under the same policy.
	fsyncPolicy string
	// rep is the project's worker-reputation engine (nil = defense off).
	// Observations fold in under p.mu on the submission path; the engine
	// has its own lock for the read paths (task gating, /workers).
	rep *reputation.Engine
	rng *rand.Rand
	// labelIdx[j] maps a categorical column's label strings to their
	// indices (nil for continuous columns). Built once at project
	// creation and immutable afterwards, so the HTTP layer resolves
	// labels in O(1) without the platform lock.
	labelIdx []map[string]int
	// absorbed is the length of the Log prefix lastModel has ingested.
	//tcrowd:guardedby inferMu
	absorbed int
	// inferMu serialises truth inference per project: the cached model is
	// refreshed incrementally in place, so exactly one RunInference may
	// touch it at a time (the platform lock stays free meanwhile, so
	// submissions never wait on EM).
	inferMu sync.Mutex
	// lastModel caches the latest truth-inference fit; after the first
	// cold fit, refreshes stream the answers past absorbed into it
	// (Ingest + RefreshIncremental) instead of re-decoding the log.
	//tcrowd:guardedby inferMu
	lastModel *core.Model
	// snapshot is the copy-on-publish estimate snapshot: every completed
	// refresh builds a fresh immutable InferenceResult and swaps the
	// pointer, so readers (Snapshot, the merged /estimates endpoint)
	// never block on EM and never observe a half-updated result.
	snapshot atomic.Pointer[InferenceResult]
	// tasks is a T-Crowd project's assignment state, rebuilt from the
	// estimate model at every publish and swapped in whole like snapshot
	// (only the latest: each holds an error model). Nil until the first
	// publish and for fewest-answers-first projects.
	tasks atomic.Pointer[taskState]
	// genMu guards the retained-generation ring and the last publish
	// event. Publishes are already serialised (shard worker + inferMu);
	// the mutex exists for the concurrent readers (SnapshotAt,
	// LatestEvent).
	genMu sync.RWMutex
	// retained holds the most recent published results, oldest first
	// (including the latest), so generation-pinned paged walks and
	// ?generation= re-reads survive a bounded number of publishes.
	//tcrowd:guardedby genMu
	retained []*InferenceResult
	// lastEvent is the watch event of the latest publish, replayed to
	// watchers that connect (or long-poll) with a stale ?after=.
	//tcrowd:guardedby genMu
	lastEvent api.WatchEvent
	// hub fans published generation bumps out to watchers.
	hub *watchHub
	// wal is the project's durable write-ahead log (nil when the platform
	// runs without durability). Appends are serialised under the platform
	// mutex so WAL order is exactly in-memory log order.
	wal *wal.Log
	// follower marks a replica-mode project: its published generations
	// arrive from the project's home node via ApplyReplicatedGeneration,
	// the whole pinned-read surface serves them locally, and every write
	// path rejects with a NotHomeError carrying homeAddr. Set at replica
	// creation or DemoteToReplica.
	//tcrowd:guardedby Platform.mu
	follower bool
	//tcrowd:guardedby Platform.mu
	homeAddr string
	// replicaAnswers/replicaWorkers mirror the newest replicated
	// generation's AnswersSeen and worker count — the follower's stand-in
	// for its (empty or lagging) local answer log in Stats and freshness
	// checks.
	//tcrowd:guardedby Platform.mu
	replicaAnswers int
	//tcrowd:guardedby Platform.mu
	replicaWorkers int
}

// Platform hosts projects and is safe for concurrent use.
type Platform struct {
	mu sync.Mutex
	//tcrowd:guardedby mu
	projects map[string]*Project
	seed     int64
	// retain is the per-project retained-generation ring capacity.
	retain int
	// retainBytes optionally caps the retained ring by estimated result
	// bytes (0 = count-only): after each publish the oldest generations
	// are evicted until the ring's estimated footprint fits. The latest
	// generation is always retained whatever its size.
	retainBytes int64
	// pubHook, when set, observes every snapshot publish on home (non-
	// follower) projects — the cluster layer's replication tap. Stored
	// behind an atomic pointer so publishes (shard workers) never race
	// SetPublishHook.
	pubHook atomic.Pointer[PublishHook]
	// sched partitions per-project refresh work across shard workers; all
	// model mutation funnels through it (see the package comment).
	sched *shard.Scheduler
	// walOpts enables the durable write-ahead log when non-nil.
	walOpts *WALOptions
	// closeOnce makes Close idempotent; closeErr remembers its outcome.
	closeOnce sync.Once
	closeErr  error
}

// Options configures the platform's serving layer. The zero value gives
// the shard scheduler's defaults (GOMAXPROCS-derived worker count, queue
// depth 64) and an 8-generation retention ring.
type Options struct {
	// Workers is the number of inference shard workers.
	Workers int
	// QueueDepth bounds each shard's pending refresh queue; a full queue
	// sheds refresh work with shard.ErrShardSaturated.
	QueueDepth int
	// RetainGenerations is how many published snapshot generations each
	// project keeps addressable (SnapshotAt, generation-pinned cursors)
	// after they stop being the latest. Default 8; the latest generation
	// is always retained.
	RetainGenerations int
	// RetainBytes additionally caps each project's retained ring by
	// estimated in-memory bytes (estimate cells plus worker-quality
	// entries): generations are evicted oldest-first once the ring's
	// footprint exceeds the cap, whatever RetainGenerations allows. 0
	// disables the byte cap. The latest generation is always retained.
	RetainBytes int64
	// WAL enables the durable write-ahead log: answers are persisted
	// before acknowledgement and the platform recovers them at boot (see
	// Recover). Nil keeps the platform purely in-memory.
	WAL *WALOptions
}

// New returns an empty platform with default serving options; seed drives
// assignment tie-breaking.
func New(seed int64) *Platform { return NewWithOptions(seed, Options{}) }

// NewWithOptions returns an empty platform with an explicitly sized shard
// scheduler.
func NewWithOptions(seed int64, opts Options) *Platform {
	if opts.RetainGenerations <= 0 {
		opts.RetainGenerations = 8
	}
	return &Platform{
		projects:    make(map[string]*Project),
		seed:        seed,
		retain:      opts.RetainGenerations,
		retainBytes: opts.RetainBytes,
		walOpts:     opts.WAL,
		sched: shard.New(shard.Options{
			Workers:    opts.Workers,
			QueueDepth: opts.QueueDepth,
		}),
	}
}

// Close drains the shard scheduler: queued refreshes run to completion and
// the workers exit. Submissions and strongly consistent reads after Close
// fail with shard.ErrClosed; snapshot reads keep working. Watch channels
// close after the drain, so watchers observe every generation published by
// the draining refreshes before their stream ends.
//
// After the drain — so in-flight compactions have finished — every
// project's WAL is flushed, fsynced and closed regardless of the fsync
// policy: a clean shutdown never loses recorded answers even under
// fsync=never. The returned error reports the first WAL flush failure.
// Close is idempotent; repeat calls return the first call's outcome.
func (p *Platform) Close() error {
	p.closeOnce.Do(func() {
		p.sched.Close()
		p.mu.Lock()
		projs := make([]*Project, 0, len(p.projects))
		for _, proj := range p.projects {
			projs = append(projs, proj)
		}
		p.mu.Unlock()
		for _, proj := range projs {
			if proj.wal != nil {
				if err := proj.wal.Close(); err != nil && p.closeErr == nil {
					p.closeErr = fmt.Errorf("platform: close wal for %s: %w", proj.ID, err)
				}
			}
			proj.hub.close()
		}
	})
	return p.closeErr
}

// ShardMetrics snapshots the scheduler's per-shard counters (queue depth,
// coalesced/rejected/completed jobs, refresh latency) for the /stats
// endpoint and operational monitoring.
func (p *Platform) ShardMetrics() []shard.Metrics { return p.sched.Metrics() }

// NumShardWorkers returns the inference worker count.
func (p *Platform) NumShardWorkers() int { return p.sched.NumShards() }

// ProjectConfig configures CreateProject.
type ProjectConfig struct {
	// Rows is the number of entities to collect.
	Rows int
	// Entities optionally names the rows (len must equal Rows if set).
	Entities []string
	// UseTCrowdAssignment enables structure-aware T-Crowd task assignment
	// over the project's estimate model; otherwise tasks are served
	// fewest-answers-first.
	UseTCrowdAssignment bool
	// RefreshEvery bounds submissions between the asynchronous inference
	// refreshes Submit enqueues, which also rebuild the assignment state
	// (default 25; use 1 for a refresh per answer).
	RefreshEvery int
	// FsyncPolicy overrides the platform-wide WAL fsync policy for this
	// project: "always", "interval" or "never" (empty = platform
	// default). A hot campaign can demand fsync-per-batch while a bulk
	// import scratch project skips fsyncs entirely, on the same
	// platform. Ignored when durability is disabled.
	FsyncPolicy string
	// Reputation enables the online worker-reputation engine: streaming
	// trust scores per worker with graduated responses — E-step
	// down-weighting, assignment quarantine, and a sticky auto-ban that
	// rejects further submissions with ErrWorkerBanned. Reputation
	// verdicts ride the WAL, so bans survive crash recovery.
	Reputation bool
}

// CreateProject registers a new campaign. With durability enabled the
// registration is logged (and fsynced, whatever the policy) before the
// call returns: a created project survives any crash.
func (p *Platform) CreateProject(id string, schema tabular.Schema, cfg ProjectConfig) (*Project, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	proj, err := p.createProjectLocked(id, schema, cfg)
	if err != nil {
		return nil, err
	}
	if p.walOpts != nil {
		if err := p.attachProjectWAL(proj); err != nil {
			delete(p.projects, id)
			return nil, err
		}
	}
	return proj, nil
}

// attachProjectWAL opens the project's log directory, refuses one that
// already holds records (an unrecovered or foreign log — creating over
// it would fork history), and makes the registration durable. Caller
// holds p.mu.
func (p *Platform) attachProjectWAL(proj *Project) error {
	l, replay, err := p.walOpts.openProjectWAL(proj.ID, proj.fsyncPolicy)
	if err != nil {
		return fmt.Errorf("%w: open wal for %q: %v", ErrDurability, proj.ID, err)
	}
	if len(replay.Records) > 0 {
		_ = l.Close()
		return fmt.Errorf("%w: wal directory for %q already holds records (recover or remove it)", ErrDuplicateID, proj.ID)
	}
	if err := appendCreateRecord(l, walCreateInfo(proj)); err != nil {
		_ = l.Close()
		_ = p.walOpts.fs().RemoveAll(p.walOpts.projDir(proj.ID))
		return fmt.Errorf("%w: log create of %q: %v", ErrDurability, proj.ID, err)
	}
	proj.wal = l
	return nil
}

// createProjectLocked validates and registers a project in memory.
// Caller holds p.mu; WAL attachment is the caller's concern (CreateProject
// logs a create record, recovery re-attaches the replayed log).
func (p *Platform) createProjectLocked(id string, schema tabular.Schema, cfg ProjectConfig) (*Project, error) {
	// Project IDs feed the shard scheduler's coalescing keys, which
	// namespace job kinds with a control-character suffix — a crafted ID
	// containing control characters could collide with another project's
	// job key (and would be miserable in URLs and logs anyway).
	for _, r := range id {
		if r < 0x20 || r == 0x7f {
			return nil, fmt.Errorf("platform: project id contains control character %q", r)
		}
	}
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if cfg.Rows <= 0 {
		return nil, fmt.Errorf("platform: project %q needs at least one row", id)
	}
	if cfg.Entities != nil && len(cfg.Entities) != cfg.Rows {
		return nil, fmt.Errorf("platform: %d entities for %d rows", len(cfg.Entities), cfg.Rows)
	}
	if cfg.FsyncPolicy != "" {
		if _, err := wal.ParseSyncPolicy(cfg.FsyncPolicy); err != nil {
			return nil, fmt.Errorf("platform: project %q: %w", id, err)
		}
	}
	if _, dup := p.projects[id]; dup {
		return nil, ErrDuplicateID
	}
	tbl := tabular.NewTable(schema, cfg.Rows)
	if cfg.Entities != nil {
		tbl.Entities = append([]string(nil), cfg.Entities...)
	}
	proj := &Project{
		ID:           id,
		Table:        tbl,
		Log:          tabular.NewAnswerLog(),
		tcrowd:       cfg.UseTCrowdAssignment,
		refreshEvery: cfg.RefreshEvery,
		fsyncPolicy:  cfg.FsyncPolicy,
		rng:          stats.NewRNG(p.seed + int64(len(p.projects))),
		labelIdx:     buildLabelIndex(schema),
		hub:          newWatchHub(),
		// Full-capacity ring up front: publishes never grow it, so the
		// copy-on-publish path stays allocation-free after the result
		// itself.
		retained: make([]*InferenceResult, 0, p.retain),
	}
	if proj.refreshEvery <= 0 {
		proj.refreshEvery = 25
	}
	if cfg.Reputation {
		proj.rep = reputation.NewEngine(reputation.Config{})
	}
	p.projects[id] = proj
	return proj, nil
}

// buildLabelIndex precomputes per-column label→index maps so answer
// validation resolves labels in O(1) instead of scanning the label slice
// per submission.
func buildLabelIndex(schema tabular.Schema) []map[string]int {
	out := make([]map[string]int, len(schema.Columns))
	for j, col := range schema.Columns {
		if col.Type != tabular.Categorical {
			continue
		}
		m := make(map[string]int, len(col.Labels))
		for k, lbl := range col.Labels {
			m[lbl] = k
		}
		out[j] = m
	}
	return out
}

// LabelIndex resolves a label string in column j's domain via the map
// precomputed at project creation. It is safe without the platform lock
// (the schema is immutable after creation).
func (proj *Project) LabelIndex(j int, label string) (int, bool) {
	if j < 0 || j >= len(proj.labelIdx) || proj.labelIdx[j] == nil {
		return 0, false
	}
	idx, ok := proj.labelIdx[j][label]
	return idx, ok
}

// Project returns a registered project.
func (p *Platform) Project(id string) (*Project, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	proj, ok := p.projects[id]
	if !ok {
		return nil, ErrNoProject
	}
	return proj, nil
}

// ProjectIDs lists projects sorted by id.
func (p *Platform) ProjectIDs() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.projects))
	for id := range p.projects {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Task is what a worker receives: the cell plus everything needed to
// render the question.
type Task struct {
	Row    int      `json:"row"`
	Entity string   `json:"entity"`
	Column string   `json:"column"`
	Type   string   `json:"type"`
	Labels []string `json:"labels,omitempty"`
}

// assignRefreshWait bounds how long a task request waits for the estimate
// refresh that brings the assignment state up to date. An idle shard
// finishes well within it; a busy one (co-sharded projects' queued work, a
// long cold fit) would otherwise stall the request behind a backlog that
// backpressure, tripping only on a FULL queue, never sheds.
const assignRefreshWait = 2 * time.Second

// taskState is a published assignment state and the log length it covers.
type taskState struct {
	st          *assign.State
	answersSeen int
}

// RequestTasks assigns up to k cells to worker u (the external-HIT hook):
// by structure-aware information gain over the assignment state the last
// estimate refresh published when T-Crowd assignment is enabled,
// otherwise — and whenever that selects nothing — fewest-answers-first
// with random tie-breaking. At a refresh-cadence boundary (and on the
// first request) it waits at most assignRefreshWait for a state covering
// the log; under backpressure or past the wait it serves the previous
// state instead of hanging or failing. Scoring runs outside every lock:
// p.mu is held only to copy the worker's answers or, for the fallback, to
// snapshot the cells' answer counts and tie-break draws.
func (p *Platform) RequestTasks(projectID string, u tabular.WorkerID, k int) ([]Task, error) {
	p.mu.Lock()
	proj, ok := p.projects[projectID]
	if !ok {
		p.mu.Unlock()
		return nil, ErrNoProject
	}
	if proj.follower {
		home := proj.homeAddr
		p.mu.Unlock()
		return nil, &NotHomeError{Project: projectID, Home: home}
	}
	if proj.rep != nil && !proj.rep.Assignable(u) {
		p.mu.Unlock()
		if proj.rep.State(u) == reputation.Banned {
			return nil, fmt.Errorf("%w: %s", ErrWorkerBanned, u)
		}
		// Quarantined: no tasks (from any selector, fallback included),
		// but not an error — the worker may still redeem themselves on
		// answers already held.
		return []Task{}, nil
	}
	logLen := proj.Log.Len()
	needRefresh := proj.tcrowd && proj.sinceRefresh == 0 && logLen > 0
	p.mu.Unlock()

	// A state that covers the log skips the shard round trip (idle projects
	// polled for tasks would otherwise queue a no-op per poll). Otherwise
	// coalesce into the project's estimate refresh — the job key Submit's
	// refreshes use — and wait for it; a shed job or an expired wait serves
	// the previous state, and a queued job still freshens later requests.
	if ts := proj.tasks.Load(); needRefresh && (ts == nil || ts.answersSeen < logLen) {
		done, err := p.sched.SubmitNotifyKeyed(projectID, projectID, func() error { return p.refreshProject(proj) })
		switch {
		case errors.Is(err, shard.ErrShardSaturated), errors.Is(err, shard.ErrClosed):
		case err != nil:
			return nil, err
		default:
			t := time.NewTimer(assignRefreshWait)
			select {
			case err := <-done:
				t.Stop()
				if err != nil {
					return nil, err
				}
			case <-t.C:
			}
		}
	}

	if k <= 0 {
		k = proj.Table.NumCols()
	}
	var cells []tabular.Cell
	if ts := proj.tasks.Load(); ts != nil {
		// The state is shared and read-only: score it against a copy of
		// this worker's own answers, the only thing taken under the lock.
		p.mu.Lock()
		mine := proj.Log.ByWorker(u)
		p.mu.Unlock()
		cells = assign.StructureIG{}.SelectAnswers(ts.st, u, mine, k)
	}
	if len(cells) == 0 {
		p.mu.Lock()
		cands := proj.unansweredByCount(u)
		p.mu.Unlock()
		cells = fewestAnswersFirst(cands, k)
	}
	out := make([]Task, len(cells))
	for i, c := range cells {
		col := proj.Table.Schema.Columns[c.Col]
		out[i] = Task{
			Row:    c.Row,
			Entity: proj.Table.Entities[c.Row],
			Column: col.Name,
			Type:   col.Type.String(),
			Labels: col.Labels,
		}
	}
	return out, nil
}

// countedCell is a cell worker u may answer, its answer count and a
// random tie-break draw.
type countedCell struct {
	c tabular.Cell
	n int
	r float64
}

// unansweredByCount snapshots, in row-major order, the cells u has not
// answered with their answer counts and one proj.rng draw each — the O(cells)
// part of fewest-answers-first that needs the platform lock.
//
//tcrowd:locked Platform.mu
func (proj *Project) unansweredByCount(u tabular.WorkerID) []countedCell {
	rows, cols := proj.Table.NumRows(), proj.Table.NumCols()
	answered := make([]bool, rows*cols)
	for _, a := range proj.Log.ByWorker(u) {
		answered[a.Cell.Row*cols+a.Cell.Col] = true
	}
	cands := make([]countedCell, 0, rows*cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if answered[i*cols+j] {
				continue
			}
			c := tabular.Cell{Row: i, Col: j}
			cands = append(cands, countedCell{c: c, n: proj.Log.CountByCell(c), r: proj.rng.Float64()})
		}
	}
	return cands
}

// fewestAnswersFirst returns up to k of the snapshot's cells, fewest
// collected answers first and random draws breaking ties, by partial
// selection (k is a HIT's worth of tasks). It reorders cands.
func fewestAnswersFirst(cands []countedCell, k int) []tabular.Cell {
	less := func(a, b countedCell) bool {
		if a.n != b.n {
			return a.n < b.n
		}
		return a.r < b.r
	}
	k = min(k, len(cands))
	out := make([]tabular.Cell, k)
	for sel := 0; sel < k; sel++ {
		best := sel
		for i := sel + 1; i < len(cands); i++ {
			if less(cands[i], cands[best]) {
				best = i
			}
		}
		cands[sel], cands[best] = cands[best], cands[sel]
		out[sel] = cands[sel].c
	}
	return out
}

// RefreshState reports what a submission did to the project's inference
// refresh pipeline (mirrored on the wire by api.Refresh*).
type RefreshState string

// Refresh states returned by SubmitBatch. The values are defined by the
// wire contract (api.Refresh*) so the two cannot drift.
const (
	// RefreshEnqueued: a refresh was enqueued (or coalesced) on the
	// project's shard.
	RefreshEnqueued RefreshState = api.RefreshEnqueued
	// RefreshNone: mid-cadence, no refresh was due.
	RefreshNone RefreshState = api.RefreshNone
	// RefreshDeferred: the due refresh was shed by a saturated shard
	// queue; the answers are recorded regardless.
	RefreshDeferred RefreshState = api.RefreshDeferred
	// RefreshShutdown: the scheduler is closed; answers recorded, no
	// refresh will run.
	RefreshShutdown RefreshState = api.RefreshShutdown
)

// BatchItemError locates one invalid answer inside a rejected batch.
type BatchItemError struct {
	// Index is the answer's position in the submitted slice.
	Index int
	// Err is the per-answer validation error (ErrAlreadyAnswered, unknown
	// column, ...).
	Err error
}

// BatchError reports why SubmitBatch rejected a batch. Batches are atomic:
// when a BatchError is returned, nothing was recorded.
type BatchError struct {
	Items []BatchItemError
}

// Error implements the error interface.
func (e *BatchError) Error() string {
	if len(e.Items) == 1 {
		return fmt.Sprintf("platform: batch answer %d invalid: %v", e.Items[0].Index, e.Items[0].Err)
	}
	return fmt.Sprintf("platform: %d invalid answers in batch (first: answer %d: %v)",
		len(e.Items), e.Items[0].Index, e.Items[0].Err)
}

// Unwrap exposes the per-item errors to errors.Is (a single-cause batch
// rejection matches its underlying sentinel, e.g. ErrAlreadyAnswered).
func (e *BatchError) Unwrap() []error {
	out := make([]error, len(e.Items))
	for i, it := range e.Items {
		out[i] = it.Err
	}
	return out
}

// BatchResult reports what an accepted submission recorded and did to the
// refresh pipeline.
type BatchResult struct {
	// Recorded is the number of answers appended to the log.
	Recorded int
	// Refresh is the refresh outcome.
	Refresh RefreshState
	// RefreshErr is the shard error behind RefreshDeferred/RefreshShutdown
	// (wraps shard.ErrShardSaturated or shard.ErrClosed), nil otherwise.
	RefreshErr error
}

// AnswerMeta carries optional per-answer submission metadata riding next
// to the answer on the wire (api.Answer.WorkTimeMs / .Client).
type AnswerMeta struct {
	// WorkTimeMs is the client-reported time spent on the task in
	// milliseconds (0 = not reported). Negative values fail validation.
	WorkTimeMs int64
	// Client identifies the submitting client software (diagnostics only).
	Client string
}

// validateAnswer checks one answer against the project under p.mu; seen
// holds (worker, cell) pairs earlier in the same batch.
func validateAnswer(proj *Project, a tabular.Answer, seen map[tabular.Answer]bool) error {
	j := a.Cell.Col
	if j < 0 || j >= proj.Table.NumCols() {
		return fmt.Errorf("platform: column index %d outside schema (%d columns)", j, proj.Table.NumCols())
	}
	if a.Cell.Row < 0 || a.Cell.Row >= proj.Table.NumRows() {
		return fmt.Errorf("platform: row %d outside project (%d rows)", a.Cell.Row, proj.Table.NumRows())
	}
	if err := a.Value.CheckAgainst(proj.Table.Schema.Columns[j]); err != nil {
		return err
	}
	// Deliberately not part of Value.CheckAgainst, which WAL replay also
	// runs: recovery must still replay every answer it acknowledged (the
	// model skips one beyond the bound). NaN fails too.
	if a.Value.Kind == tabular.Number && !(math.Abs(a.Value.X) <= core.MaxAnswerMagnitude) {
		return fmt.Errorf("platform: number %g outside ±%g", a.Value.X, core.MaxAnswerMagnitude)
	}
	if a.Worker == "" {
		return errors.New("platform: empty worker id")
	}
	key := tabular.Answer{Worker: a.Worker, Cell: a.Cell}
	if seen[key] || proj.Log.HasAnswered(a.Worker, a.Cell) {
		return ErrAlreadyAnswered
	}
	if seen != nil {
		seen[key] = true
	}
	return nil
}

// SubmitBatch records a batch of answers atomically: every answer is
// validated up front (schema, row range, double answers — including
// duplicates within the batch itself), and on any failure the whole batch
// is rejected with a *BatchError pinpointing the offending rows and
// NOTHING is recorded. On success all answers append to the log and at
// most ONE coalesced refresh is enqueued on the project's shard — a
// 200-answer batch costs one queued refresh, not 200 — following the
// project's refresh cadence (a refresh is due when the batch crosses a
// RefreshEvery boundary or while no snapshot has been published yet).
//
// Shard backpressure never fails an accepted batch: when the due refresh
// is shed (saturated queue or shutdown), the result carries
// RefreshDeferred/RefreshShutdown plus the shard error, and the cadence
// counter is rewound so the next submission retries the refresh.
//
// Answers address cells directly (Cell.Col is a schema column index); the
// HTTP layer resolves column names and labels via Project.LabelIndex.
func (p *Platform) SubmitBatch(projectID string, answers []tabular.Answer) (BatchResult, error) {
	return p.SubmitBatchMeta(projectID, answers, nil)
}

// SubmitBatchMeta is SubmitBatch with per-answer submission metadata:
// meta[i] annotates answers[i] (nil meta = no metadata, identical to
// SubmitBatch). On a project running the reputation engine each accepted
// answer is also folded into the submitting worker's trust score — answers
// from auto-banned workers are rejected per item with ErrWorkerBanned —
// and any state-change verdicts are appended to the WAL so bans survive
// crash recovery.
func (p *Platform) SubmitBatchMeta(projectID string, answers []tabular.Answer, meta []AnswerMeta) (BatchResult, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	proj, ok := p.projects[projectID]
	if !ok {
		return BatchResult{}, ErrNoProject
	}
	if proj.follower {
		return BatchResult{}, &NotHomeError{Project: projectID, Home: proj.homeAddr}
	}
	if len(answers) == 0 {
		return BatchResult{}, errors.New("platform: empty answer batch")
	}
	if meta != nil && len(meta) != len(answers) {
		return BatchResult{}, fmt.Errorf("platform: %d metadata entries for %d answers", len(meta), len(answers))
	}
	seen := make(map[tabular.Answer]bool, len(answers))
	var bad []BatchItemError
	for i, a := range answers {
		err := validateAnswer(proj, a, seen)
		if err == nil && meta != nil && meta[i].WorkTimeMs < 0 {
			err = fmt.Errorf("platform: negative work_time_ms %d", meta[i].WorkTimeMs)
		}
		if err == nil && proj.rep != nil && proj.rep.State(a.Worker) == reputation.Banned {
			err = fmt.Errorf("%w: %s", ErrWorkerBanned, a.Worker)
		}
		if err != nil {
			bad = append(bad, BatchItemError{Index: i, Err: err})
		}
	}
	if len(bad) > 0 {
		return BatchResult{}, &BatchError{Items: bad}
	}
	// Durability before acknowledgement: the whole batch is one framed
	// WAL record (one append + one fsync however large the batch, so
	// batch amortisation survives fsync=always), written under p.mu so
	// WAL order is exactly in-memory log order — replay reproduces the
	// log bit for bit. WAL-first makes the protocol at-least-once: a
	// crash between the fsync and the ack leaves the batch durable, and
	// the client's retry is rejected as already answered.
	var rotated bool
	if proj.wal != nil {
		blob, err := tabular.MarshalAnswers(proj.Table.Schema, answers)
		if err != nil {
			return BatchResult{}, err
		}
		rotated, err = proj.wal.Append(wal.Record{Type: walRecBatch, Data: blob})
		if err != nil {
			return BatchResult{}, fmt.Errorf("%w: %v", ErrDurability, err)
		}
	}
	for _, a := range answers {
		proj.Log.Add(a)
	}
	if proj.rep != nil {
		// Fold the accepted answers into the reputation engine — a pure
		// left fold over the answer stream, so any batching of the same
		// stream yields the same verdict sequence. Verdicts (state
		// changes) are made durable as a WAL reputation record carrying
		// the transitioning workers' full snapshots; a failure here is
		// non-fatal (the answers are already durable, and a lost verdict
		// is re-earned from the next few answers after recovery).
		var changed []tabular.WorkerID
		for i, a := range answers {
			var ms int64
			if meta != nil {
				ms = meta[i].WorkTimeMs
			}
			if v, ok := proj.rep.Observe(reputation.Observation{Answer: a, WorkTimeMs: ms}); ok {
				changed = append(changed, v.Worker)
			}
		}
		if len(changed) > 0 && proj.wal != nil {
			if rot, err := appendReputationRecord(proj, changed); err == nil && rot {
				rotated = true
			}
		}
	}
	if rotated {
		// The append sealed a segment: fold the history into a checkpoint
		// on the project's home shard (own job key; never coalesces into
		// refreshes, best-effort — the next rotation retries a shed job).
		p.scheduleCompaction(projectID, proj)
	}
	res := BatchResult{Recorded: len(answers), Refresh: RefreshNone}
	proj.sinceRefresh += len(answers)
	crossed := proj.sinceRefresh >= proj.refreshEvery
	if crossed {
		proj.sinceRefresh = 0
	}
	if crossed || proj.snapshot.Load() == nil {
		if err := p.sched.Submit(projectID, func() error { return p.refreshProject(proj) }); err != nil {
			// The cadence slot was consumed but no refresh landed: rewind
			// the counter so the very next submission retries, keeping the
			// documented staleness bound instead of waiting out another
			// full RefreshEvery window (or forever, if traffic stops).
			proj.sinceRefresh = proj.refreshEvery - 1
			res.RefreshErr = err
			res.Refresh = RefreshDeferred
			if errors.Is(err, shard.ErrClosed) {
				res.Refresh = RefreshShutdown
			}
		} else {
			res.Refresh = RefreshEnqueued
		}
	}
	return res, nil
}

// Submit records worker u's answer for (row, column). Values are validated
// against the schema, and double answers by the same worker are rejected.
//
// Accepted answers also keep the published estimate snapshot warm: an
// asynchronous refresh is enqueued on the project's shard on the project's
// refresh cadence — immediately while no snapshot exists yet, then every
// RefreshEvery-th submission (coalesced: a burst of submissions costs one
// queued refresh). Cadence gating keeps write-only projects from running
// EM per answer; published snapshots lag the log by at most RefreshEvery
// answers plus the in-flight refresh, and strongly consistent reads
// (RunInference) always see everything.
//
// When the shard queue is saturated, the ANSWER IS STILL RECORDED — only
// the refresh is shed — and Submit returns an error wrapping
// shard.ErrShardSaturated so callers can apply backpressure (the legacy
// HTTP route maps it to 429; /v1 reports it in-body instead). The same
// applies to shard.ErrClosed during shutdown. SubmitBatch is the
// batch-oriented equivalent.
func (p *Platform) Submit(projectID string, u tabular.WorkerID, row int, column string, value tabular.Value) error {
	p.mu.Lock()
	proj, ok := p.projects[projectID]
	p.mu.Unlock()
	if !ok {
		return ErrNoProject
	}
	j := proj.Table.Schema.ColumnIndex(column)
	if j < 0 {
		return fmt.Errorf("platform: unknown column %q", column)
	}
	a := tabular.Answer{Worker: u, Cell: tabular.Cell{Row: row, Col: j}, Value: value}
	res, err := p.SubmitBatch(projectID, []tabular.Answer{a})
	if err != nil {
		var be *BatchError
		if errors.As(err, &be) {
			return be.Items[0].Err
		}
		return err
	}
	if res.RefreshErr != nil {
		return fmt.Errorf("platform: answer recorded, refresh shed: %w", res.RefreshErr)
	}
	return nil
}

// InferenceResult is the requester-facing output: estimates plus worker
// qualities. Results are immutable once published — refreshes build a new
// one and swap the project's snapshot pointer (copy-on-publish). Every
// publish gets the next Generation and enters the project's retained ring,
// so generation-pinned reads (SnapshotAt, paged cursor walks) address a
// bounded window of past states.
type InferenceResult struct {
	Estimates metrics.Estimates
	// WorkerQuality maps workers to their unified quality q_u.
	WorkerQuality map[tabular.WorkerID]float64
	// Iterations and Converged report EM behaviour.
	Iterations int
	Converged  bool
	// Generation numbers this publish (1 is the project's first; strictly
	// increasing — a refresh that absorbs nothing republishes nothing).
	Generation int
	// AnswersSeen is the number of log answers these estimates reflect
	// (compare with Stats.Answers for staleness).
	AnswersSeen int
	// memSize is the result's estimated in-memory footprint, computed once
	// at install time and consulted by the retained ring's byte-cap
	// eviction (Options.RetainBytes). Immutable after install.
	memSize int64
}

// estimateMemSize approximates the result's resident footprint: 24 bytes
// per estimate cell (tabular.Value: kind + int + float64) and the map
// entry cost per worker (hash bucket share + key header/bytes + float64).
// An estimate is all the byte cap needs — it only has to rank generations
// of the SAME project against each other consistently.
func (r *InferenceResult) estimateMemSize() int64 {
	var n int64
	for _, row := range r.Estimates {
		n += int64(len(row)) * 24
	}
	for u := range r.WorkerQuality {
		n += int64(len(u)) + 56
	}
	return n
}

// RunInference runs T-Crowd truth inference over the project's answers and
// returns estimates reflecting every answer recorded before the call — the
// strongly consistent read. It routes through the project's shard queue
// (waiting its turn behind, or coalescing into, queued refreshes), so all
// model mutation stays on the project's home shard worker. It fails with an
// error wrapping shard.ErrShardSaturated when the shard queue is full.
//
// The first refresh pays a cold fit (on a log snapshot, so submissions
// continue meanwhile); every later one streams only the answers submitted
// since the previous refresh into the cached model (core.Ingest) and
// re-converges it with an incremental polish — refresh cost scales with the
// submission delta, not the log. With no new answers the published
// snapshot is served as is. For a read that never blocks on EM, use
// Snapshot.
func (p *Platform) RunInference(projectID string) (*InferenceResult, error) {
	p.mu.Lock()
	proj, ok := p.projects[projectID]
	if !ok {
		p.mu.Unlock()
		return nil, ErrNoProject
	}
	if proj.follower {
		// A strongly consistent read needs the home node's log; the
		// replica can only serve what has been shipped to it.
		home := proj.homeAddr
		p.mu.Unlock()
		return nil, &NotHomeError{Project: projectID, Home: home}
	}
	p.mu.Unlock()
	if err := p.sched.SubmitWait(projectID, func() error { return p.refreshProject(proj) }); err != nil {
		return nil, err
	}
	res := proj.snapshot.Load()
	if res == nil {
		// Unreachable: a successful refresh always publishes.
		return nil, ErrNoSnapshot
	}
	return res, nil
}

// Snapshot returns the project's last published estimates without ever
// blocking on inference: it is a single atomic pointer read, safe to call
// at any rate from any goroutine. The result may lag the answer log by the
// refreshes still queued (compare AnswersSeen with Stats.Answers); before
// the first completed refresh it fails with ErrNoSnapshot.
func (p *Platform) Snapshot(projectID string) (*InferenceResult, error) {
	p.mu.Lock()
	proj, ok := p.projects[projectID]
	p.mu.Unlock()
	if !ok {
		return nil, ErrNoProject
	}
	res := proj.snapshot.Load()
	if res == nil {
		return nil, ErrNoSnapshot
	}
	return res, nil
}

// SnapshotAt returns the published result for one specific generation from
// the project's retained ring — the lookup behind ?generation= re-reads
// and generation-pinned cursor walks. It fails with ErrNoSnapshot when the
// generation has not been published yet (retryable: it may appear) and
// with ErrGenerationGone when it has been evicted (the caller must restart
// from the latest generation).
func (p *Platform) SnapshotAt(projectID string, generation int) (*InferenceResult, error) {
	p.mu.Lock()
	proj, ok := p.projects[projectID]
	follower := ok && proj.follower
	p.mu.Unlock()
	if !ok {
		return nil, ErrNoProject
	}
	latest := proj.snapshot.Load()
	if latest == nil {
		if follower {
			return nil, fmt.Errorf("%w (no generation replicated yet)", ErrReplicaStale)
		}
		return nil, ErrNoSnapshot
	}
	if generation == latest.Generation {
		return latest, nil
	}
	if generation > latest.Generation {
		if follower {
			// On a replica a future generation is a replication-lag
			// condition, not "never published": the home node has (or soon
			// will have) it, and the stream will deliver it here. 503 +
			// retryable tells the pinned reader to back off briefly.
			return nil, fmt.Errorf("%w (generation %d not replicated yet, replica has %d)",
				ErrReplicaStale, generation, latest.Generation)
		}
		return nil, fmt.Errorf("%w (generation %d not yet published, latest is %d)",
			ErrNoSnapshot, generation, latest.Generation)
	}
	proj.genMu.RLock()
	defer proj.genMu.RUnlock()
	for _, r := range proj.retained {
		if r.Generation == generation {
			return r, nil
		}
	}
	return nil, fmt.Errorf("%w (generation %d, retained window starts at %d)",
		ErrGenerationGone, generation, proj.retained[0].Generation)
}

// LatestEvent returns the watch event of the project's most recent publish
// (ok false before the first publish) — the catch-up payload served to
// watchers whose ?after= lags the latest generation.
func (p *Platform) LatestEvent(projectID string) (api.WatchEvent, bool, error) {
	p.mu.Lock()
	proj, ok := p.projects[projectID]
	p.mu.Unlock()
	if !ok {
		return api.WatchEvent{}, false, ErrNoProject
	}
	proj.genMu.RLock()
	defer proj.genMu.RUnlock()
	return proj.lastEvent, proj.lastEvent.Generation > 0, nil
}

// Watch subscribes to the project's generation bumps: every snapshot
// publish delivers one api.WatchEvent on the returned watcher's channel.
// Buffers are bounded — a consumer that falls more than watchBuffer events
// behind gets the oldest pending bumps dropped instead of stalling the
// publisher or growing without bound, observable as a gap in the strictly
// increasing Generation sequence (the HTTP watch handlers translate gaps
// into the wire-level Coalesced flag). Close the watcher when done; the
// channel also closes when the platform shuts down (after the final
// drain, so no published generation goes unannounced).
func (p *Platform) Watch(projectID string) (*Watcher, error) {
	p.mu.Lock()
	proj, ok := p.projects[projectID]
	p.mu.Unlock()
	if !ok {
		return nil, ErrNoProject
	}
	return proj.hub.subscribe(), nil
}

// emMaxIter is the EM iteration budget of every refresh: the first fit's
// and each streamed polish's.
const emMaxIter = 50

// refreshProject brings the project's cached model up to date with its
// answer log, publishes a fresh estimate snapshot and, for a T-Crowd
// project, the assignment state built from the same model. It runs on the
// project's shard worker; inferMu additionally serialises it against any
// direct callers so the in-place model mutation is never concurrent. It
// reads the log's prefix without p.mu, so submissions never wait on EM.
func (p *Platform) refreshProject(proj *Project) error {
	p.mu.Lock()
	follower := proj.follower
	p.mu.Unlock()
	if follower {
		// A refresh enqueued before a DemoteToReplica may still drain
		// through the shard; a follower never publishes locally (its
		// generations arrive from the home node), so skip quietly.
		return nil
	}
	proj.inferMu.Lock()
	defer proj.inferMu.Unlock()

	// The log is append-only, with recovery building fresh projects, so
	// this prefix view stays intact while submissions append past it, and
	// the cached model always holds its first absorbed answers.
	p.mu.Lock()
	answers := proj.Log.Prefix()
	p.mu.Unlock()
	n := answers.Len() - proj.absorbed
	if n == 0 && proj.snapshot.Load() != nil {
		// Nothing new since the last publish: keep the current snapshot
		// (skipping the Estimates rebuild keeps idle refreshes O(1)).
		return nil
	}
	m := proj.lastModel
	if m == nil {
		fit, err := core.NewModel(proj.Table, core.Options{MaxIter: emMaxIter})
		if err != nil {
			return err
		}
		m = fit
		proj.lastModel = m
	}
	// Absorb the new answers in place; the model's first refresh over
	// usable answers is its cold fit. Every refresh keeps the full
	// iteration budget — seeding at the previous optimum shortens the path
	// to convergence, it must not lower the convergence guarantee of
	// requester-facing estimates; runs that start near the optimum still
	// stop after a couple of iterations via the tolerance.
	if err := m.Ingest(answers.Slice(proj.absorbed, answers.Len())); err != nil {
		return err
	}
	proj.absorbed = answers.Len()
	if m.NumAnswersUsed() == 0 {
		return core.ErrNoAnswers
	}
	if n > 0 {
		if proj.rep != nil {
			// Refresh the per-worker trust weights before EM touches the
			// new answers: quarantined/banned workers' evidence is scaled
			// down (or out) of the sufficient statistics.
			m.SetWorkerWeights(proj.rep.Weights())
		}
		m.RefreshIncremental(emMaxIter)
	}

	res := &InferenceResult{
		Estimates:     m.Estimates(),
		WorkerQuality: make(map[tabular.WorkerID]float64, len(m.WorkerIDs)),
		Iterations:    m.Iterations,
		Converged:     m.Converged,
		AnswersSeen:   answers.Len(),
	}
	for _, u := range m.WorkerIDs {
		res.WorkerQuality[u] = m.WorkerQuality(u)
	}
	if proj.rep != nil {
		// Close the loop: push the model's own worker-quality posteriors
		// back into the reputation engine. Quality only modulates the
		// weight of already-suspect workers — it never touches counters or
		// states, so verdict sequences stay independent of refresh timing.
		for _, u := range m.WorkerIDs {
			proj.rep.ObserveModelQuality(u, m.WorkerQuality(u))
		}
	}
	p.publishSnapshot(proj, res)
	if proj.tcrowd {
		// Task selection scores this same fit, reputation weights and all.
		// The state keeps no reference to m or to answers.
		proj.tasks.Store(&taskState{
			st:          assign.NewState(m.Freeze(), answers, res.Estimates, true),
			answersSeen: res.AnswersSeen,
		})
	}
	return nil
}

// WorkerReputationInfo is one worker's reputation snapshot plus the
// derived serving-side values (suspicion score, E-step weight).
type WorkerReputationInfo struct {
	reputation.WorkerSnapshot
	Score  float64
	Weight float64
}

// WorkerReputations lists a project's per-worker reputation state sorted
// by worker id. enabled reports whether the project runs the reputation
// engine at all; when false the list is empty.
func (p *Platform) WorkerReputations(projectID string) (infos []WorkerReputationInfo, enabled bool, err error) {
	p.mu.Lock()
	proj, ok := p.projects[projectID]
	p.mu.Unlock()
	if !ok {
		return nil, false, ErrNoProject
	}
	if proj.rep == nil {
		return nil, false, nil
	}
	snaps := proj.rep.Snapshot()
	infos = make([]WorkerReputationInfo, len(snaps))
	for i, s := range snaps {
		infos[i] = WorkerReputationInfo{
			WorkerSnapshot: s,
			Score:          proj.rep.Score(s.Worker),
			Weight:         proj.rep.Weight(s.Worker),
		}
	}
	return infos, true, nil
}

// publishSnapshot is the copy-on-publish commit point, running on the
// project's shard worker at the end of a refresh: it assigns the next
// generation, installs the result (retained ring, snapshot pointer, watch
// fan-out — shared with replication apply via installResult), and hands
// the publish to the cluster replication hook when one is registered.
func (p *Platform) publishSnapshot(proj *Project, res *InferenceResult) {
	prev := proj.snapshot.Load()
	res.Generation = 1
	delta := res.AnswersSeen
	if prev != nil {
		res.Generation = prev.Generation + 1
		delta = res.AnswersSeen - prev.AnswersSeen
	}
	changed, cells, overflow := changedCells(prev, res, proj.Table)
	ev := api.WatchEvent{
		Project:       proj.ID,
		Generation:    res.Generation,
		AnswersSeen:   res.AnswersSeen,
		AnswersDelta:  delta,
		ChangedCells:  changed,
		Cells:         cells,
		CellsOverflow: overflow,
		Workers:       len(res.WorkerQuality),
		Converged:     res.Converged,
	}
	p.installResult(proj, res, ev)
	if hook := p.pubHook.Load(); hook != nil {
		(*hook)(ProjectMeta{ID: proj.ID, Schema: proj.Table.Schema, Entities: proj.Table.Entities}, res, ev)
	}
}

// installResult enters a numbered result into the project's serving state:
// the retained ring (count cap, then the optional byte cap), the
// latest-event slot, the atomic snapshot pointer, and the watch fan-out.
// It is the half of a publish shared by home refreshes (publishSnapshot)
// and follower replication (ApplyReplicatedGeneration). Callers guarantee
// res.Generation exceeds the currently installed generation.
func (p *Platform) installResult(proj *Project, res *InferenceResult, ev api.WatchEvent) {
	res.memSize = res.estimateMemSize()
	proj.genMu.Lock()
	if len(proj.retained) < p.retain {
		proj.retained = append(proj.retained, res)
	} else {
		// Shift-in-place eviction: the backing array is at capacity for
		// the life of the project, so steady-state publishes allocate
		// nothing here (an append/reslice ring re-allocates every few
		// publishes as the trimmed capacity runs out).
		copy(proj.retained, proj.retained[1:])
		proj.retained[len(proj.retained)-1] = res
	}
	if p.retainBytes > 0 {
		var total int64
		for _, r := range proj.retained {
			total += r.memSize
		}
		// Evict oldest-first past the byte cap; the latest generation is
		// always retained, however large. The backing array keeps its
		// capacity (nil-out then reslice), so the count-cap fast path
		// above stays allocation-free.
		for total > p.retainBytes && len(proj.retained) > 1 {
			total -= proj.retained[0].memSize
			copy(proj.retained, proj.retained[1:])
			proj.retained[len(proj.retained)-1] = nil
			proj.retained = proj.retained[:len(proj.retained)-1]
		}
	}
	proj.lastEvent = ev
	proj.genMu.Unlock()
	proj.snapshot.Store(res)
	proj.hub.publish(ev)
}

// changedCells diffs two published results: the count of estimate cells
// whose value moved (every non-empty cell for the first publish), the
// first api.MaxChangedCells of them as an addressable list (row-major,
// so dashboards patch incrementally instead of re-fetching pages), and
// whether the list overflowed that cap.
func changedCells(prev, cur *InferenceResult, tbl *tabular.Table) (int, []api.ChangedCell, bool) {
	n := 0
	// One exact allocation: the cap can never exceed the table size or
	// api.MaxChangedCells, and publishes run per refresh on the hot path.
	cells := make([]api.ChangedCell, 0,
		min(api.MaxChangedCells, len(cur.Estimates)*len(tbl.Schema.Columns)))
	record := func(i, j int) {
		n++
		if n <= api.MaxChangedCells {
			cells = append(cells, api.ChangedCell{
				Row:    i,
				Entity: tbl.Entities[i],
				Column: tbl.Schema.Columns[j].Name,
			})
		}
	}
	for i := range cur.Estimates {
		for j := range cur.Estimates[i] {
			v := cur.Estimates[i][j]
			switch {
			case prev == nil:
				if !v.IsNone() {
					record(i, j)
				}
			case !v.Equal(prev.Estimates[i][j]):
				record(i, j)
			}
		}
	}
	return n, cells, n > api.MaxChangedCells
}

// Stats summarises collection progress.
type Stats struct {
	Rows           int     `json:"rows"`
	Columns        int     `json:"columns"`
	Cells          int     `json:"cells"`
	Answers        int     `json:"answers"`
	Workers        int     `json:"workers"`
	AnswersPerTask float64 `json:"answers_per_task"`
}

// Stats returns collection progress for a project.
func (p *Platform) Stats(projectID string) (Stats, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	proj, ok := p.projects[projectID]
	if !ok {
		return Stats{}, ErrNoProject
	}
	answers, workers := proj.Log.Len(), proj.Log.NumWorkers()
	if proj.follower {
		// A follower's local log lags (or is empty): report the counters of
		// the newest replicated generation instead, so freshness checks
		// (Fresh = AnswersSeen == Stats.Answers) agree with the home node
		// once replication has quiesced.
		answers, workers = proj.replicaAnswers, proj.replicaWorkers
	}
	return Stats{
		Rows:           proj.Table.NumRows(),
		Columns:        proj.Table.NumCols(),
		Cells:          proj.Table.NumCells(),
		Answers:        answers,
		Workers:        workers,
		AnswersPerTask: float64(answers) / float64(proj.Table.NumCells()),
	}, nil
}
