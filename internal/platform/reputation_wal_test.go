package platform

import (
	"errors"
	"fmt"
	"testing"

	"tcrowd/internal/reputation"
	"tcrowd/internal/tabular"
	"tcrowd/internal/wal"
)

// banPlatform builds a durable reputation-enabled project over fs and
// drives two spammers through the graduated responses: s1 spams every
// row (ends Banned), s2 stops after 20 rows (ends Quarantined). The
// table gets one spare row beyond the stream for post-recovery
// submission probes. Returns the platform and accepted-answer count.
func banPlatform(t *testing.T, fs wal.FS, rows int) (*Platform, int) {
	t.Helper()
	p := NewWithOptions(7, walTestOpts(fs, wal.SyncAlways))
	if _, err := p.CreateProject("guard", spamSchema(), ProjectConfig{
		Rows:         rows + 1,
		RefreshEvery: 1 << 30,
		Reputation:   true,
	}); err != nil {
		t.Fatal(err)
	}
	var answers []tabular.Answer
	var metas []AnswerMeta
	add := func(w string, r, label int, meta AnswerMeta) {
		answers = append(answers, tabular.Answer{
			Worker: tabular.WorkerID(w),
			Cell:   tabular.Cell{Row: r, Col: 0},
			Value:  tabular.LabelValue(label),
		})
		metas = append(metas, meta)
	}
	for r := 0; r < rows; r++ {
		for h := 1; h <= 3; h++ {
			add(fmt.Sprintf("h%d", h), r, r%3, honestMeta())
		}
		add("s1", r, (r+1)%3, spamMeta())
		if r < 20 {
			add("s2", r, (r+1)%3, spamMeta())
		}
	}
	accepted := 0
	sawBan := false
	for i := range answers {
		_, err := p.SubmitBatchMeta("guard", answers[i:i+1], metas[i:i+1])
		switch {
		case err == nil:
			accepted++
		case errors.Is(err, ErrWorkerBanned) && answers[i].Worker == "s1":
			sawBan = true
		default:
			t.Fatalf("answer %d: %v", i, err)
		}
	}
	if !sawBan {
		t.Fatal("spammer never banned — stream too short")
	}
	return p, accepted
}

// repInfo pulls one worker's reputation row from a platform.
func repInfo(t *testing.T, p *Platform, worker tabular.WorkerID) WorkerReputationInfo {
	t.Helper()
	infos, enabled, err := p.WorkerReputations("guard")
	if err != nil || !enabled {
		t.Fatalf("WorkerReputations: enabled=%v err=%v", enabled, err)
	}
	for _, in := range infos {
		if in.Worker == worker {
			return in
		}
	}
	t.Fatalf("worker %s not in reputation roster %+v", worker, infos)
	return WorkerReputationInfo{}
}

// TestWALBanSurvivesCleanRestart: graduated-response verdicts ride the
// WAL, so a restarted server keeps rejecting the banned worker and keeps
// the quarantined worker's counters — trust state is durable at
// state-change granularity, not re-earned from scratch. (Workers that
// never transitioned carry no verdict record and legitimately restart
// at the Active default until the next checkpoint persists the full
// roster.)
func TestWALBanSurvivesCleanRestart(t *testing.T) {
	fs := wal.NewMemFS()
	const rows = 40
	p, accepted := banPlatform(t, fs, rows)
	banBefore := repInfo(t, p, "s1")
	quarBefore := repInfo(t, p, "s2")
	if banBefore.State != reputation.Banned || quarBefore.State != reputation.Quarantined {
		t.Fatalf("pre-restart states: s1=%v s2=%v, want Banned/Quarantined", banBefore.State, quarBefore.State)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2, rep, err := Recover(7, walTestOpts(fs, wal.SyncAlways))
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer p2.Close()
	if rep.Projects != 1 || rep.Answers != accepted {
		t.Fatalf("report %+v, want 1 project / %d answers", rep, accepted)
	}

	// The ban is sticky; the quarantine (state AND its fold counters as
	// of the last verdict) survives too.
	banAfter := repInfo(t, p2, "s1")
	if banAfter.State != reputation.Banned {
		t.Fatalf("ban lost in recovery: %+v", banAfter)
	}
	quarAfter := repInfo(t, p2, "s2")
	if quarAfter.State != reputation.Quarantined {
		t.Fatalf("quarantine lost in recovery: %+v", quarAfter)
	}
	if quarAfter.Seen == 0 || quarAfter.Judged == 0 || quarAfter.DisagreeRate == 0 {
		t.Fatalf("quarantine counters lost in recovery: %+v", quarAfter.WorkerSnapshot)
	}

	// Wire-visible consequences hold after restart, on a fresh cell.
	bad := tabular.Answer{Worker: "s1", Cell: tabular.Cell{Row: rows, Col: 0}, Value: tabular.LabelValue(0)}
	if _, err := p2.SubmitBatchMeta("guard", []tabular.Answer{bad}, nil); !errors.Is(err, ErrWorkerBanned) {
		t.Fatalf("banned submission after recovery: %v", err)
	}
	if _, err := p2.RequestTasks("guard", "s1", 1); !errors.Is(err, ErrWorkerBanned) {
		t.Fatalf("banned task request after recovery: %v", err)
	}
	if tasks, err := p2.RequestTasks("guard", "s2", 1); err != nil || len(tasks) != 0 {
		t.Fatalf("quarantined tasks after recovery = %v, %v; want empty, nil", tasks, err)
	}
}

// TestWALBanSurvivesHardCrash is the kill-mid-stream variant: the
// process dies with no Close and a torn tail injected. Every verdict was
// appended under fsync=always before the platform acted on it, so the
// ban must still hold in the restarted process.
func TestWALBanSurvivesHardCrash(t *testing.T) {
	fs := wal.NewMemFS()
	const rows = 40
	p, _ := banPlatform(t, fs, rows)
	fs.Crash(3)
	_ = p // the old platform is dead weight; recovery mounts the wreckage

	p2, rep, err := Recover(7, walTestOpts(fs.Recovered(), wal.SyncAlways))
	if err != nil {
		t.Fatalf("recover after crash: %v", err)
	}
	defer p2.Close()
	if rep.Projects != 1 {
		t.Fatalf("report %+v", rep)
	}
	if got := repInfo(t, p2, "s1"); got.State != reputation.Banned {
		t.Fatalf("ban lost in crash recovery: %+v", got)
	}
	bad := tabular.Answer{Worker: "s1", Cell: tabular.Cell{Row: rows, Col: 0}, Value: tabular.LabelValue(0)}
	if _, err := p2.SubmitBatchMeta("guard", []tabular.Answer{bad}, nil); !errors.Is(err, ErrWorkerBanned) {
		t.Fatalf("banned submission after crash recovery: %v", err)
	}
}

// TestWALCheckpointCarriesReputation: after compaction folds the log into
// a checkpoint record, the FULL reputation roster (honest counters
// included) must be rebuilt from the checkpoint alone — the per-verdict
// records it replaced are gone.
func TestWALCheckpointCarriesReputation(t *testing.T) {
	fs := wal.NewMemFS()
	const rows = 40
	p, _ := banPlatform(t, fs, rows)
	// A refresh pushes model quality into the reputation engine: run the
	// one the first submission enqueued, and a last one over the whole
	// log, before the checkpoint, so none lands between it and the read.
	if _, err := p.RunInference("guard"); err != nil {
		t.Fatal(err)
	}
	proj, err := p.Project("guard")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.compactProject(proj); err != nil {
		t.Fatalf("compact: %v", err)
	}
	before, _, _ := p.WorkerReputations("guard")
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay through recoverProject, the per-project half of Recover: it
	// schedules no warmup refresh, whose model-quality push would rewrite
	// ModelQ under the read.
	p2 := NewWithOptions(7, walTestOpts(fs, wal.SyncAlways))
	defer p2.Close()
	if _, _, err := p2.recoverProject(p2.walOpts.projDir("guard"), nil, nil); err != nil {
		t.Fatalf("recover from checkpoint: %v", err)
	}
	after, _, err := p2.WorkerReputations("guard")
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("recovered %d workers, want %d (honest counters live in the checkpoint)", len(after), len(before))
	}
	for i := range after {
		if after[i].WorkerSnapshot != before[i].WorkerSnapshot {
			t.Errorf("worker %s snapshot drifted across checkpointed recovery:\n got %+v\nwant %+v",
				after[i].Worker, after[i].WorkerSnapshot, before[i].WorkerSnapshot)
		}
	}
}
