package platform

import (
	"errors"
	"fmt"

	"tcrowd/api"
	"tcrowd/internal/metrics"
	"tcrowd/internal/tabular"
	"tcrowd/internal/wal"
)

// Cluster-facing replication surface. The platform itself knows nothing
// about peers, rings or HTTP: it exposes (a) a publish hook the cluster
// layer taps to stream generations out of a home node, (b) an apply path
// that installs replicated generations into follower-mode projects and
// mirrors the home's WAL segments they carry, and (c) WAL ship/adopt/demote
// primitives for membership handoff. internal/cluster wires these to the
// wire.

// Replication sentinels.
var (
	// ErrNotHome rejects a write (or strongly consistent read) that
	// reached a node the cluster ring does not make responsible for the
	// project. The concrete error is a *NotHomeError carrying the home
	// node's base URL, surfaced on the wire as 421 not_home with an
	// envelope Home field the SDK follows automatically.
	ErrNotHome = errors.New("platform: not the project's home node")
	// ErrReplicaStale rejects a generation-pinned read on a replica that
	// has not received the requested generation yet. Retryable: the
	// replication stream delivers it shortly.
	ErrReplicaStale = errors.New("platform: generation not replicated to this node yet")
)

// NotHomeError is the concrete ErrNotHome: it names the project and the
// home node's base URL so the edge (and through it the SDK) can re-issue
// the request at the right node.
type NotHomeError struct {
	Project string
	// Home is the home node's base URL ("http://host:port"), empty when
	// the rejecting node does not know it (e.g. mid-membership-change).
	Home string
}

// Error implements the error interface.
func (e *NotHomeError) Error() string {
	if e.Home == "" {
		return fmt.Sprintf("platform: project %q is not homed on this node", e.Project)
	}
	return fmt.Sprintf("platform: project %q is homed at %s", e.Project, e.Home)
}

// Unwrap ties the concrete error to the ErrNotHome sentinel (and through
// it to the errtable row).
func (e *NotHomeError) Unwrap() error { return ErrNotHome }

// ProjectMeta is the immutable registration half of a project, handed to
// the publish hook so replication payloads are self-sufficient (a
// follower can create the project from the first generation it receives).
// Schema and Entities are immutable after creation, so sharing them with
// the hook is safe.
type ProjectMeta struct {
	ID       string
	Schema   tabular.Schema
	Entities []string
}

// PublishHook observes every snapshot publish on home (non-follower)
// projects. It runs synchronously on the publishing shard worker, so
// implementations must be fast — the cluster layer only enqueues the
// generation onto per-peer shippers and returns.
type PublishHook func(meta ProjectMeta, res *InferenceResult, ev api.WatchEvent)

// SetPublishHook installs (or, with nil, removes) the publish hook.
// Typically called once at boot before traffic; safe concurrently with
// publishes either way.
func (p *Platform) SetPublishHook(h PublishHook) {
	if h == nil {
		p.pubHook.Store(nil)
		return
	}
	p.pubHook.Store(&h)
}

// ReplicatedGeneration is one published generation in transit from a home
// node to its followers: the project's registration facts (so a follower
// can create the project on first contact) plus the full immutable result
// and the watch event the home fanned out. Applying the same payload on
// any node yields byte-identical estimate pages — the result fields are
// exactly what the page writer (pageWriter.write) consumes. WAL carries
// the home's live WAL segments as read when the generation was sent; the
// follower keeps them as its durable mirror of the project.
type ReplicatedGeneration struct {
	Project  string         `json:"project"`
	Schema   tabular.Schema `json:"schema"`
	Entities []string       `json:"entities"`

	Generation    int                          `json:"generation"`
	AnswersSeen   int                          `json:"answers_seen"`
	Iterations    int                          `json:"iterations"`
	Converged     bool                         `json:"converged"`
	Estimates     metrics.Estimates            `json:"estimates"`
	WorkerQuality map[tabular.WorkerID]float64 `json:"worker_quality,omitempty"`

	// Event is the watch event the home node published for this
	// generation; followers fan it out to their own watchers verbatim.
	Event api.WatchEvent `json:"event"`

	WAL []wal.ShippedSegment `json:"wal,omitempty"`
}

// BuildReplicatedGeneration packages one publish for the wire — the
// cluster layer calls this from its publish hook.
func BuildReplicatedGeneration(meta ProjectMeta, res *InferenceResult, ev api.WatchEvent) ReplicatedGeneration {
	return ReplicatedGeneration{
		Project:       meta.ID,
		Schema:        meta.Schema,
		Entities:      meta.Entities,
		Generation:    res.Generation,
		AnswersSeen:   res.AnswersSeen,
		Iterations:    res.Iterations,
		Converged:     res.Converged,
		Estimates:     res.Estimates,
		WorkerQuality: res.WorkerQuality,
		Event:         ev,
	}
}

// result rehydrates the payload into the immutable form the serving path
// consumes. The payload is decoded fresh per request, so sharing its
// slices/maps with the result is safe.
func (g *ReplicatedGeneration) result() *InferenceResult {
	return &InferenceResult{
		Estimates:     g.Estimates,
		WorkerQuality: g.WorkerQuality,
		Iterations:    g.Iterations,
		Converged:     g.Converged,
		Generation:    g.Generation,
		AnswersSeen:   g.AnswersSeen,
	}
}

// validate checks the payload is internally consistent before any state
// is touched: a malformed grid must not reach the render path.
func (g *ReplicatedGeneration) validate() error {
	if g.Project == "" {
		return errors.New("platform: replicated generation without project id")
	}
	if g.Generation <= 0 {
		return fmt.Errorf("platform: replicated generation %d out of range", g.Generation)
	}
	if err := g.Schema.Validate(); err != nil {
		return err
	}
	if len(g.Entities) == 0 {
		return errors.New("platform: replicated generation without entities")
	}
	if len(g.Estimates) != len(g.Entities) {
		return fmt.Errorf("platform: %d estimate rows for %d entities", len(g.Estimates), len(g.Entities))
	}
	cols := len(g.Schema.Columns)
	for i, row := range g.Estimates {
		if len(row) != cols {
			return fmt.Errorf("platform: estimate row %d has %d cells for %d columns", i, len(row), cols)
		}
	}
	return nil
}

// ApplyReplicatedGeneration installs one generation shipped from the
// project's home node, then rewrites the follower's WAL mirror from the
// segments it carries. On first contact the project is created in
// follower mode (writes reject with NotHomeError; the pinned-read surface
// serves the replicated generations). A generation older than the
// installed one changes nothing, and a repeat of it only rewrites the
// mirror, so redelivery after a stream retry is idempotent. Applying to a
// project homed on THIS node is refused: two nodes believing they own a
// project must fail loudly, not interleave histories.
func (p *Platform) ApplyReplicatedGeneration(g *ReplicatedGeneration, home string) error {
	if err := g.validate(); err != nil {
		return err
	}
	p.mu.Lock()
	proj, ok := p.projects[g.Project]
	if !ok {
		var err error
		proj, err = p.createProjectLocked(g.Project, g.Schema, ProjectConfig{
			Rows:     len(g.Entities),
			Entities: g.Entities,
		})
		if err != nil {
			p.mu.Unlock()
			return err
		}
		proj.follower = true
	}
	if !proj.follower {
		p.mu.Unlock()
		return fmt.Errorf("platform: project %q is homed on this node; refusing replicated generation %d", g.Project, g.Generation)
	}
	proj.homeAddr = home
	p.mu.Unlock()

	// Serialise applies per project, and against RemoveReplica: the
	// stale-check, install and mirror write must be atomic. inferMu is
	// otherwise unused on followers (they never run inference), so it
	// doubles as the apply mutex.
	proj.inferMu.Lock()
	defer proj.inferMu.Unlock()
	cur := proj.snapshot.Load()
	if cur != nil && g.Generation < cur.Generation {
		return nil
	}
	if cur == nil || g.Generation > cur.Generation {
		ev := g.Event
		if ev.Generation != g.Generation || ev.Project != g.Project {
			// Defensive: never fan out an event that disagrees with the
			// result it announces.
			ev = api.WatchEvent{Project: g.Project, Generation: g.Generation, AnswersSeen: g.AnswersSeen,
				Workers: len(g.WorkerQuality), Converged: g.Converged}
		}
		p.mu.Lock()
		proj.replicaAnswers = g.AnswersSeen
		proj.replicaWorkers = len(g.WorkerQuality)
		p.mu.Unlock()
		p.installResult(proj, g.result(), ev)
	}
	// The mirror is written after the install, so readers never wait on
	// its fsyncs. A failed write does not fail the apply, or the shipper
	// would resend and stall the peer's stream behind one disk fault: the
	// next ship rewrites the whole mirror. A removed replica writes nothing.
	p.mu.Lock()
	live := p.projects[g.Project] == proj
	p.mu.Unlock()
	if live && p.walOpts != nil && len(g.WAL) > 0 {
		_ = wal.WriteSegments(p.walOpts.fs(), p.walOpts.projDir(g.Project), g.WAL)
	}
	return nil
}

// LatestReplicated packages the project's newest published generation for
// the wire (ok false before the first publish) — handoff ships it to seed
// generation continuity on the new home.
func (p *Platform) LatestReplicated(projectID string) (ReplicatedGeneration, bool, error) {
	p.mu.Lock()
	proj, ok := p.projects[projectID]
	if !ok {
		p.mu.Unlock()
		return ReplicatedGeneration{}, false, ErrNoProject
	}
	meta := ProjectMeta{ID: proj.ID, Schema: proj.Table.Schema, Entities: proj.Table.Entities}
	p.mu.Unlock()
	res := proj.snapshot.Load()
	if res == nil {
		return ReplicatedGeneration{}, false, nil
	}
	proj.genMu.RLock()
	ev := proj.lastEvent
	proj.genMu.RUnlock()
	return BuildReplicatedGeneration(meta, res, ev), true, nil
}

// IsFollower reports whether the project lives on this node in follower
// mode, and if so where its home is. The cluster edge uses it to decide
// between serving a read locally and routing it.
func (p *Platform) IsFollower(projectID string) (follower bool, home string, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	proj, ok := p.projects[projectID]
	if !ok {
		return false, "", ErrNoProject
	}
	return proj.follower, proj.homeAddr, nil
}

// ShipWAL snapshots the project's live WAL segments for shipping to a
// follower (with every generation) or a new home (handoff). Only a home
// project with durability on has a log to ship.
func (p *Platform) ShipWAL(projectID string) ([]wal.ShippedSegment, error) {
	p.mu.Lock()
	proj, ok := p.projects[projectID]
	if !ok {
		p.mu.Unlock()
		return nil, ErrNoProject
	}
	l := proj.wal
	p.mu.Unlock()
	if l == nil {
		return nil, fmt.Errorf("platform: project %q has no write-ahead log on this node; nothing to ship", projectID)
	}
	return l.ShipSegments()
}

// AdoptWAL promotes this node to the project's home from a handoff push:
// the previous home ships its full segment set plus its latest published
// generation, and the receiver rebuilds the project from the shipped WAL
// through the ordinary recovery path. The seed generation is installed
// first so generation numbering continues where the old home left off
// (pinned readers and watchers never see the counter restart).
//
// Returns adopted=false (and no error) when the project is already homed
// here — the idempotent answer to a duplicate push.
func (p *Platform) AdoptWAL(projectID string, segs []wal.ShippedSegment, seed *ReplicatedGeneration) (adopted bool, err error) {
	if p.walOpts == nil {
		return false, errors.New("platform: WAL adoption requires durability (Options.WAL)")
	}
	if len(segs) == 0 {
		return false, fmt.Errorf("platform: empty WAL push for %q", projectID)
	}
	p.mu.Lock()
	old, exists := p.projects[projectID]
	if exists && !old.follower {
		p.mu.Unlock()
		return false, nil
	}
	if exists {
		// Promoting an in-memory follower: drop it and rebuild from the
		// authoritative shipped WAL; its hub and retained generations are
		// carried over below so watchers and pinned readers survive.
		delete(p.projects, projectID)
	}
	p.mu.Unlock()

	dir := p.walOpts.projDir(projectID)
	if err := wal.WriteSegments(p.walOpts.fs(), dir, segs); err != nil {
		return false, err
	}
	proj, _, err := p.recoverProject(dir)
	if err != nil {
		return false, err
	}
	if proj == nil {
		return false, fmt.Errorf("platform: pushed WAL for %q held no records", projectID)
	}
	if exists {
		// Continuity for clients already attached to the replica: existing
		// watchers keep their subscription (the old hub replaces the fresh
		// one) and pinned reads against replicated generations keep
		// resolving (the old retained ring seeds the new one).
		p.mu.Lock()
		proj.hub = old.hub
		p.mu.Unlock()
		old.genMu.RLock()
		retained := append([]*InferenceResult(nil), old.retained...)
		lastEv := old.lastEvent
		old.genMu.RUnlock()
		proj.genMu.Lock()
		n := len(retained)
		if n > cap(proj.retained) {
			retained = retained[n-cap(proj.retained):]
		}
		proj.retained = append(proj.retained[:0], retained...)
		proj.lastEvent = lastEv
		proj.genMu.Unlock()
		if latest := old.snapshot.Load(); latest != nil {
			proj.snapshot.Store(latest)
		}
	}
	if seed != nil && seed.Generation > 0 {
		if cur := proj.snapshot.Load(); cur == nil || seed.Generation > cur.Generation {
			ev := seed.Event
			if ev.Generation != seed.Generation || ev.Project != projectID {
				ev = api.WatchEvent{Project: projectID, Generation: seed.Generation,
					AnswersSeen: seed.AnswersSeen, Workers: len(seed.WorkerQuality), Converged: seed.Converged}
			}
			p.installResult(proj, seed.result(), ev)
		}
	}
	if proj.Log.Len() > 0 {
		// Warm the model like boot recovery does: the first post-handoff
		// read should not pay the cold fit.
		_ = p.sched.Submit(proj.ID, func() error { return p.refreshProject(proj) })
	}
	return true, nil
}

// DemoteToReplica flips a home project into follower mode after its data
// moved to a new home (membership change): writes start rejecting with
// NotHomeError, the retained generations keep serving reads, and the
// project's WAL append handle closes. The WAL directory stays on disk as
// the follower's mirror — the next generation the new home ships
// overwrites it with the authoritative copy. (A restart before that
// recovers the project as home; the cluster layer re-demotes at boot when
// the ring disagrees, so the loop self-heals.)
func (p *Platform) DemoteToReplica(projectID, home string) error {
	p.mu.Lock()
	proj, ok := p.projects[projectID]
	if !ok {
		p.mu.Unlock()
		return ErrNoProject
	}
	if proj.follower {
		proj.homeAddr = home
		p.mu.Unlock()
		return nil
	}
	proj.follower = true
	proj.homeAddr = home
	proj.replicaAnswers = proj.Log.Len()
	proj.replicaWorkers = proj.Log.NumWorkers()
	l := proj.wal
	proj.wal = nil
	p.mu.Unlock()
	if l != nil {
		_ = l.Close()
	}
	return nil
}

// RemoveReplica drops a follower-mode project (the home node deleted it):
// watchers close, lookups start failing with ErrNoProject, and the WAL
// mirror is reaped tombstone-first like DeleteProject. Refuses home
// projects — deleting those is DeleteProject's job, with its own
// durability dance.
func (p *Platform) RemoveReplica(projectID string) error {
	p.mu.Lock()
	proj, ok := p.projects[projectID]
	if !ok {
		p.mu.Unlock()
		return ErrNoProject
	}
	if !proj.follower {
		p.mu.Unlock()
		return fmt.Errorf("platform: project %q is homed on this node; use DeleteProject", projectID)
	}
	delete(p.projects, projectID)
	p.mu.Unlock()
	// Wait out an apply still writing the mirror; later ones see the
	// project gone and write nothing.
	proj.inferMu.Lock()
	proj.inferMu.Unlock()
	proj.hub.close()
	if p.walOpts != nil {
		fs := p.walOpts.fs()
		dir := p.walOpts.projDir(projectID)
		tomb := dir + walTombstoneSuffix
		if err := fs.Rename(dir, tomb); err == nil {
			_ = fs.SyncDir(p.walOpts.Dir)
			_ = fs.RemoveAll(tomb)
		}
	}
	return nil
}
