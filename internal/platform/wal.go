package platform

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/url"
	"path/filepath"
	"strings"
	"time"

	"tcrowd/internal/reputation"
	"tcrowd/internal/tabular"
	"tcrowd/internal/wal"
)

// ErrDurability is returned when the write-ahead log cannot make a
// mutation durable (failed append, failed fsync, wedged log). The answer
// is NOT recorded — acknowledgement means durable, so a failure to
// persist is a failure to accept. Retryable: the fault may be transient,
// and the WAL heals torn appends.
var ErrDurability = errors.New("platform: durability failure")

// WAL record types. walRecCheckpoint must stay distinct from every other
// type forever: replay locates its starting segment by it. The enum
// directive makes tcrowd-lint require every switch mentioning one of
// these to handle all of them — a new record type cannot silently skip a
// replay path.
//
//tcrowd:enum walrec
const (
	walRecCheckpoint byte = 1 // full project state (compaction artifact)
	walRecCreate     byte = 2 // project registration
	walRecBatch      byte = 3 // one accepted answer batch
	// walRecReputation carries the full reputation snapshots of workers
	// whose state just changed (a graduated-response verdict). Replay
	// applies the records in order, so the last snapshot per worker wins
	// — a ban acknowledged before a crash is a ban after recovery.
	walRecReputation byte = 4
)

// walTombstoneSuffix marks a project directory being deleted. The '#'
// cannot appear in url.PathEscape output, so no live project directory
// can collide with a tombstone. Recovery reaps tombstones instead of
// replaying them, making DeleteProject crash-safe: either the rename
// happened (project gone) or it did not (project intact).
const walTombstoneSuffix = "#deleted"

// compactJobSuffix namespaces compaction jobs in the shard scheduler's
// coalescing map: routed to the project's home shard, never coalesced
// into refresh jobs (whose key is the bare project ID).
const compactJobSuffix = "\x00compact"

// WALOptions configures the platform's durable write-ahead log. A nil
// *WALOptions in Options disables durability (in-memory platform, as
// before).
type WALOptions struct {
	// Dir is the log root; each project logs under Dir/<escaped-id>/.
	Dir string
	// SegmentBytes is the per-segment rotation threshold (default
	// wal.DefaultSegmentBytes). Rotation also schedules compaction.
	SegmentBytes int64
	// Policy is the fsync policy (default wal.SyncAlways).
	Policy wal.SyncPolicy
	// Interval is the flush cadence for wal.SyncInterval.
	Interval time.Duration
	// FS overrides the filesystem (fault-injection tests). Default: the
	// real filesystem.
	FS wal.FS
}

func (o *WALOptions) fs() wal.FS {
	if o.FS != nil {
		return o.FS
	}
	return wal.OSFS()
}

// projDir is the per-project log directory. IDs are path-escaped so
// arbitrary project names map to safe single directory names.
func (o *WALOptions) projDir(id string) string {
	return filepath.Join(o.Dir, url.PathEscape(id))
}

// walOptions builds the wal.Options for one project log. A non-empty
// policyOverride (already validated by createProjectLocked or the create
// record's decoder) replaces the platform-wide fsync policy — hot
// projects can run "always" while bulk-import scratch projects run
// "never" on the same platform.
func (o *WALOptions) walOptions(policyOverride string) wal.Options {
	policy := o.Policy
	if policyOverride != "" {
		if p, err := wal.ParseSyncPolicy(policyOverride); err == nil {
			policy = p
		}
	}
	return wal.Options{
		SegmentBytes:   o.SegmentBytes,
		Policy:         policy,
		Interval:       o.Interval,
		FS:             o.FS,
		CheckpointType: walRecCheckpoint,
	}
}

// openProjectWAL mounts (creating if needed) one project's log.
func (o *WALOptions) openProjectWAL(id, policyOverride string) (*wal.Log, wal.Replay, error) {
	return wal.Open(o.projDir(id), o.walOptions(policyOverride))
}

// walCreateJSON is the payload of a create record: everything needed to
// re-register the project at replay.
type walCreateJSON struct {
	ID           string         `json:"id"`
	Schema       tabular.Schema `json:"schema"`
	Entities     []string       `json:"entities"`
	TCrowd       bool           `json:"tcrowd,omitempty"`
	RefreshEvery int            `json:"refresh_every,omitempty"`
	// FsyncPolicy is the project's durability override ("always",
	// "interval" or "never"; empty = platform default). Recorded so
	// recovery reopens the log under the same policy the project was
	// created with.
	FsyncPolicy string `json:"fsync_policy,omitempty"`
	// Reputation records whether the project runs the reputation engine
	// (whose verdicts ride the log as walRecReputation records).
	Reputation bool `json:"reputation,omitempty"`
}

// walCheckpointJSON is the payload of a checkpoint record. It embeds the
// create info because compaction deletes the segment holding the
// original create record; a checkpoint must be a self-sufficient replay
// start.
type walCheckpointJSON struct {
	Create walCreateJSON `json:"create"`
	// Generation is the published snapshot generation the checkpoint was
	// taken at (0 before the first publish) — diagnostic provenance tying
	// the compaction artifact to the copy-on-publish lineage.
	Generation int             `json:"generation"`
	Answers    json.RawMessage `json:"answers"`
	// Reputation is the full per-worker reputation state at checkpoint
	// time. Compaction deletes the segments holding the verdict records,
	// so the checkpoint must carry the folded state forward.
	Reputation []reputation.WorkerSnapshot `json:"reputation,omitempty"`
}

// walCreateInfo captures proj's registration facts. Caller holds p.mu.
func walCreateInfo(proj *Project) walCreateJSON {
	return walCreateJSON{
		ID:           proj.ID,
		Schema:       proj.Table.Schema,
		Entities:     proj.Table.Entities,
		TCrowd:       proj.tcrowd,
		RefreshEvery: proj.refreshEvery,
		FsyncPolicy:  proj.fsyncPolicy,
		Reputation:   proj.rep != nil,
	}
}

// appendReputationRecord logs the current snapshots of the workers whose
// reputation state just changed. Caller holds p.mu (so the record lands
// in stream order relative to the answer batches that caused it). The
// returned bool reports a segment rotation, like wal.Log.Append.
func appendReputationRecord(proj *Project, workers []tabular.WorkerID) (bool, error) {
	snaps := make([]reputation.WorkerSnapshot, 0, len(workers))
	for _, u := range workers {
		snaps = append(snaps, proj.rep.SnapshotOf(u))
	}
	payload, err := json.Marshal(snaps)
	if err != nil {
		return false, err
	}
	return proj.wal.Append(wal.Record{Type: walRecReputation, Data: payload})
}

// appendCreateRecord logs the project's registration and forces it to
// stable storage regardless of the fsync policy: creations are rare and
// losing one invalidates every later record in the directory.
func appendCreateRecord(l *wal.Log, info walCreateJSON) error {
	payload, err := json.Marshal(info)
	if err != nil {
		return err
	}
	if _, err := l.Append(wal.Record{Type: walRecCreate, Data: payload}); err != nil {
		return err
	}
	return l.Sync()
}

// scheduleCompaction enqueues a compaction of proj's WAL on its home
// shard (own coalescing key, so it never collapses into refreshes).
// Best-effort: a shed job is retried at the next segment rotation.
func (p *Platform) scheduleCompaction(projectID string, proj *Project) {
	_, _ = p.sched.SubmitNotifyKeyed(projectID, projectID+compactJobSuffix,
		func() error { return p.compactProject(proj) })
}

// compactProject rewrites proj's WAL as one checkpoint record carrying
// the full current state. It runs on the project's shard worker and
// takes p.mu for the duration of the rewrite so the checkpoint and the
// append stream cannot interleave — the WAL stays an exact prefix-free
// replay of the in-memory log.
func (p *Platform) compactProject(proj *Project) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if proj.wal == nil {
		return nil
	}
	blob, err := tabular.MarshalAnswers(proj.Table.Schema, proj.Log.All())
	if err != nil {
		return err
	}
	gen := 0
	if g := proj.gens.Load(); g != nil {
		gen = g.latest().Generation
	}
	var repSnaps []reputation.WorkerSnapshot
	if proj.rep != nil {
		repSnaps = proj.rep.Snapshot()
	}
	payload, err := json.Marshal(walCheckpointJSON{
		Create:     walCreateInfo(proj),
		Generation: gen,
		Answers:    blob,
		Reputation: repSnaps,
	})
	if err != nil {
		return err
	}
	if err := proj.wal.Compact(wal.Record{Data: payload}); err != nil {
		// A deleted project's in-flight compaction lands on a closed log;
		// that is shutdown noise, not a fault.
		if errors.Is(err, wal.ErrClosed) {
			return nil
		}
		return err
	}
	return nil
}

// RecoveryReport summarises what Recover replayed.
type RecoveryReport struct {
	// Projects and Answers count what was rebuilt from the logs.
	Projects int
	Answers  int
	// TornProjects lists projects whose final segment ended in a torn
	// frame and was truncated back to the last durable record.
	TornProjects []string
}

// Recover boots a platform from its write-ahead logs: every project
// directory under the WAL root is replayed (create + batches, or the
// newest checkpoint + batches after it), torn tails are truncated, and
// projects with answers get a warmup refresh enqueued so the read path
// serves shortly after boot. Tombstoned directories (crashed deletes)
// and empty logs (crashed creates) are reaped.
//
// A bad frame before a log's tail is unattributable corruption: Recover
// refuses to boot with an error wrapping wal.ErrWALCorrupt rather than
// silently dropping history.
func Recover(seed int64, opts Options) (*Platform, RecoveryReport, error) {
	if opts.WAL == nil {
		return nil, RecoveryReport{}, errors.New("platform: Recover requires Options.WAL")
	}
	p := NewWithOptions(seed, opts)
	var rep RecoveryReport
	fs := opts.WAL.fs()
	if err := fs.MkdirAll(opts.WAL.Dir, 0o755); err != nil {
		p.Close()
		return nil, rep, fmt.Errorf("platform: wal root: %w", err)
	}
	entries, err := fs.ReadDir(opts.WAL.Dir)
	if err != nil {
		p.Close()
		return nil, rep, fmt.Errorf("platform: list wal root: %w", err)
	}
	var warm []*Project
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(opts.WAL.Dir, e.Name())
		if strings.HasSuffix(e.Name(), walTombstoneSuffix) {
			_ = fs.RemoveAll(dir) // crashed delete: finish it
			continue
		}
		proj, projRep, err := p.recoverProject(dir, nil, nil)
		if err != nil {
			p.Close()
			return nil, rep, fmt.Errorf("platform: recover %s: %w", e.Name(), err)
		}
		if proj == nil {
			continue // empty log (crashed create), reaped
		}
		rep.Projects++
		rep.Answers += proj.Log.Len()
		if projRep.Torn {
			rep.TornProjects = append(rep.TornProjects, proj.ID)
		}
		if proj.Log.Len() > 0 {
			warm = append(warm, proj)
		}
	}
	for _, proj := range warm {
		_ = p.sched.Submit(proj.ID, func() error { return p.refreshProject(proj) })
	}
	return p, rep, nil
}

// recoverProject replays one project directory. A nil project with nil
// error means the directory held no durable records and was removed. A
// non-nil from is a replica being promoted and seed the previous home's
// latest generation (AdoptWAL; boot recovery passes neither): the rebuilt
// project takes over the replica's watch hub, and its first published
// state is the replica's with the seed installed on top when newer, set
// under the p.mu hold that registers the project. No request or refresh
// can see the project before that, so its first own refresh numbers on
// from the seed and no install can interleave.
func (p *Platform) recoverProject(dir string, from *Project, seed *ReplicatedGeneration) (*Project, wal.Replay, error) {
	l, replay, err := wal.Open(dir, p.walOpts.walOptions(""))
	if err != nil {
		return nil, wal.Replay{}, err
	}
	if len(replay.Records) == 0 {
		// A crash between directory creation and the create record's
		// fsync: nothing was ever acknowledged, so nothing is lost.
		_ = l.Close()
		_ = p.walOpts.fs().RemoveAll(dir)
		return nil, wal.Replay{}, nil
	}

	var info walCreateJSON
	var answerBlobs []json.RawMessage
	// repBlobs collects reputation snapshots in log order (checkpoint
	// state first, then every verdict record); applied last-wins per
	// worker via Restore.
	var repBlobs [][]reputation.WorkerSnapshot
	first := replay.Records[0]
	//lint:allow errtable the switch partitions the enum on purpose: batch/reputation records at log head are corruption, rejected (with the raw byte) by the default arm
	switch first.Type {
	case walRecCreate:
		if err := json.Unmarshal(first.Data, &info); err != nil {
			return nil, wal.Replay{}, fmt.Errorf("%w: undecodable create record: %v", wal.ErrWALCorrupt, err)
		}
	case walRecCheckpoint:
		var ck walCheckpointJSON
		if err := json.Unmarshal(first.Data, &ck); err != nil {
			return nil, wal.Replay{}, fmt.Errorf("%w: undecodable checkpoint record: %v", wal.ErrWALCorrupt, err)
		}
		info = ck.Create
		if len(ck.Answers) > 0 {
			answerBlobs = append(answerBlobs, ck.Answers)
		}
		if len(ck.Reputation) > 0 {
			repBlobs = append(repBlobs, ck.Reputation)
		}
	default:
		return nil, wal.Replay{}, fmt.Errorf("%w: log starts with record type %d, want create or checkpoint", wal.ErrWALCorrupt, first.Type)
	}
	for i, rec := range replay.Records[1:] {
		//lint:allow errtable the switch partitions the enum on purpose: create/checkpoint records mid-log are corruption, rejected (with the raw byte) by the default arm
		switch rec.Type {
		case walRecBatch:
			answerBlobs = append(answerBlobs, rec.Data)
		case walRecReputation:
			var snaps []reputation.WorkerSnapshot
			if err := json.Unmarshal(rec.Data, &snaps); err != nil {
				return nil, wal.Replay{}, fmt.Errorf("%w: undecodable reputation record %d: %v", wal.ErrWALCorrupt, i+1, err)
			}
			repBlobs = append(repBlobs, snaps)
		default:
			return nil, wal.Replay{}, fmt.Errorf("%w: record %d has type %d mid-log, want batch or reputation", wal.ErrWALCorrupt, i+1, rec.Type)
		}
	}

	// A project created with a per-project fsync override must keep it
	// across restarts: reopen the healed log under the recorded policy.
	// An unknown policy string is unattributable corruption, same as any
	// other undecodable create field.
	if info.FsyncPolicy != "" {
		pol, perr := wal.ParseSyncPolicy(info.FsyncPolicy)
		if perr != nil {
			_ = l.Close()
			return nil, wal.Replay{}, fmt.Errorf("%w: create record: %v", wal.ErrWALCorrupt, perr)
		}
		if pol != p.walOpts.Policy {
			_ = l.Close()
			l, _, err = wal.Open(dir, p.walOpts.walOptions(info.FsyncPolicy))
			if err != nil {
				return nil, wal.Replay{}, err
			}
		}
	}

	p.mu.Lock()
	proj, err := p.createProjectLocked(info.ID, info.Schema, ProjectConfig{
		Rows:                len(info.Entities),
		Entities:            info.Entities,
		UseTCrowdAssignment: info.TCrowd,
		RefreshEvery:        info.RefreshEvery,
		FsyncPolicy:         info.FsyncPolicy,
		Reputation:          info.Reputation,
	})
	if err == nil {
		for _, blob := range answerBlobs {
			as, derr := tabular.UnmarshalAnswers(blob, info.Schema)
			if derr != nil {
				err = fmt.Errorf("%w: undecodable answer batch: %v", wal.ErrWALCorrupt, derr)
				break
			}
			proj.Log.AddAll(as)
		}
	}
	if err == nil && proj.rep != nil {
		for _, snaps := range repBlobs {
			proj.rep.Restore(snaps)
		}
	}
	if err == nil {
		proj.wal = l
		if from != nil {
			proj.hub = from.hub
			proj.gens.Store(from.gens.Load())
		}
		if seed != nil && seed.Generation > 0 {
			ev := seed.watchEvent(proj.ID)
			if g := p.nextGenerations(proj.gens.Load(), &seed.InferenceResult, ev, nil); g != nil {
				// Fanned out before p.mu is released, so it precedes every
				// event a refresh on the new home publishes.
				proj.gens.Store(g)
				proj.hub.publish(ev)
			}
		}
	} else if proj != nil {
		delete(p.projects, proj.ID)
	}
	p.mu.Unlock()
	if err != nil {
		_ = l.Close()
		return nil, wal.Replay{}, err
	}
	return proj, replay, nil
}

// DeleteProject unregisters a project and destroys its WAL. The delete
// is crash-safe: the project directory is atomically renamed to a
// tombstone before removal, and recovery reaps tombstones — a crash
// mid-removal can never resurrect a half-deleted project (or worse,
// replay its remaining segments as corrupt history).
//
// In-flight pinned reads against already-loaded snapshots keep working
// (the snapshots are immutable); new lookups fail with ErrNoProject, and
// the project's watch channels close.
func (p *Platform) DeleteProject(id string) error {
	p.mu.Lock()
	proj, ok := p.projects[id]
	if !ok {
		p.mu.Unlock()
		return ErrNoProject
	}
	if proj.follower {
		// Deletion is a write: it must land on the home node (which then
		// fans replica removal out via RemoveReplica).
		home := proj.homeAddr
		p.mu.Unlock()
		return &NotHomeError{Project: id, Home: home}
	}
	delete(p.projects, id)
	p.mu.Unlock()

	proj.hub.close()
	if proj.wal == nil {
		return nil
	}
	if err := proj.wal.Close(); err != nil {
		// The log is going away regardless; a flush error on close does
		// not block the delete.
		_ = err
	}
	fs := p.walOpts.fs()
	dir := p.walOpts.projDir(id)
	tomb := dir + walTombstoneSuffix
	if err := fs.Rename(dir, tomb); err != nil {
		return fmt.Errorf("%w: tombstone %s: %v", ErrDurability, id, err)
	}
	_ = fs.SyncDir(p.walOpts.Dir)
	_ = fs.RemoveAll(tomb) // best-effort; recovery reaps leftovers
	return nil
}
