package platform

import (
	"errors"
	"fmt"

	"tcrowd/api"
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
// any node yields byte-identical estimate pages — the embedded result is
// exactly what the page writer (pageWriter.write) consumes. WAL carries
// the home's live WAL segments as read when the generation was sent; the
// follower keeps them as its durable mirror of the project.
type ReplicatedGeneration struct {
	Project  string         `json:"project"`
	Schema   tabular.Schema `json:"schema"`
	Entities []string       `json:"entities"`

	InferenceResult

	// Event is the watch event the home node published for this
	// generation; followers fan it out to their own watchers verbatim.
	Event api.WatchEvent `json:"event"`

	WAL []wal.ShippedSegment `json:"wal,omitempty"`
}

// BuildReplicatedGeneration packages one publish for the wire — the
// cluster layer calls this from its publish hook.
func BuildReplicatedGeneration(meta ProjectMeta, res *InferenceResult, ev api.WatchEvent) ReplicatedGeneration {
	return ReplicatedGeneration{
		Project:         meta.ID,
		Schema:          meta.Schema,
		Entities:        meta.Entities,
		InferenceResult: *res,
		Event:           ev,
	}
}

// watchEvent returns the event to fan out for the payload installed under
// project: the shipped Event, or — defensively, when that disagrees with
// the result it announces — one rebuilt from the result.
func (g *ReplicatedGeneration) watchEvent(project string) api.WatchEvent {
	if g.Event.Generation == g.Generation && g.Event.Project == project {
		return g.Event
	}
	return api.WatchEvent{Project: project, Generation: g.Generation, AnswersSeen: g.AnswersSeen,
		Workers: len(g.WorkerQuality), Converged: g.Converged}
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

	// Serialise applies per project, and against RemoveReplica and
	// AdoptWAL: the liveness and stale checks, install and mirror write
	// must be atomic. inferMu is otherwise unused on followers (they never
	// run inference), so it doubles as the apply mutex. A replica removed
	// or promoted since the lookup above takes nothing: its watchers and
	// generations have moved on, or gone.
	proj.inferMu.Lock()
	defer proj.inferMu.Unlock()
	p.mu.Lock()
	live := p.projects[g.Project] == proj
	p.mu.Unlock()
	if !live {
		return nil
	}
	cur := proj.gens.Load()
	if cur != nil && g.Generation < cur.latest().Generation {
		return nil
	}
	if cur == nil || g.Generation > cur.latest().Generation {
		p.mu.Lock()
		proj.replicaAnswers = g.AnswersSeen
		proj.replicaWorkers = len(g.WorkerQuality)
		p.mu.Unlock()
		// The install copies the embedded result, so a retained generation
		// does not keep the payload's WAL segments alive; the payload is
		// decoded fresh per request, so sharing its slices and maps is safe.
		p.installResult(proj, &g.InferenceResult, g.watchEvent(g.Project), nil)
	}
	// The mirror is written after the install, so readers never wait on
	// its fsyncs. A failed write does not fail the apply, or the shipper
	// would resend and stall the peer's stream behind one disk fault: the
	// next ship rewrites the whole mirror.
	if p.walOpts != nil && len(g.WAL) > 0 {
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
	g := proj.gens.Load()
	if g == nil {
		return ReplicatedGeneration{}, false, nil
	}
	return BuildReplicatedGeneration(meta, g.latest(), g.event), true, nil
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
// through the ordinary recovery path. A promoted replica's published
// generations and watchers carry over into the rebuilt project, and the
// seed generation installs on top when it is newer, before the project is
// visible (recoverProject), so generation numbering continues where the
// old home left off: pinned readers and watchers never see the counter
// restart or step back, and the seed's generation number means the seed's
// estimates on every node.
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
		// authoritative shipped WAL.
		delete(p.projects, projectID)
	}
	p.mu.Unlock()
	if exists {
		// Wait out an apply still installing on the replica; later ones
		// find it unregistered and install nothing, so its generations are
		// final once this returns.
		old.inferMu.Lock()
		old.inferMu.Unlock()
	}

	dir := p.walOpts.projDir(projectID)
	if err := wal.WriteSegments(p.walOpts.fs(), dir, segs); err != nil {
		return false, err
	}
	proj, _, err := p.recoverProject(dir, old, seed)
	if err != nil {
		return false, err
	}
	if proj == nil {
		return false, fmt.Errorf("platform: pushed WAL for %q held no records", projectID)
	}
	// The project is registered: submissions may be appending already.
	p.mu.Lock()
	warm := proj.Log.Len() > 0
	p.mu.Unlock()
	if warm {
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
