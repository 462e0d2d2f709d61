package platform

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"tcrowd/api"
	"tcrowd/internal/tabular"
	"tcrowd/internal/wal"
)

// walTestOpts builds durable platform options over the given fault-
// injectable filesystem.
func walTestOpts(fs wal.FS, policy wal.SyncPolicy) Options {
	return Options{WAL: &WALOptions{Dir: "walroot", FS: fs, Policy: policy}}
}

// catAnswer is one categorical answer for row r by worker w (value r%3),
// distinct per (worker,row) so batches always pass validation.
func catAnswer(w string, r int) tabular.Answer {
	return tabular.Answer{
		Worker: tabular.WorkerID(w),
		Cell:   tabular.Cell{Row: r, Col: 0},
		Value:  tabular.LabelValue(r % 3),
	}
}

// TestWALRecoverRoundTrip is the basic durability contract: everything
// acknowledged before a clean shutdown is rebuilt by Recover — projects,
// their registration config, and every answer in submission order.
func TestWALRecoverRoundTrip(t *testing.T) {
	fs := wal.NewMemFS()
	p := NewWithOptions(7, walTestOpts(fs, wal.SyncAlways))
	if _, err := p.CreateProject("alpha", demoSchema(), ProjectConfig{Rows: 4, RefreshEvery: 5, Entities: []string{"a", "b", "c", "d"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CreateProject("beta", demoSchema(), ProjectConfig{Rows: 2}); err != nil {
		t.Fatal(err)
	}
	var want []tabular.Answer
	for r := 0; r < 4; r++ {
		want = append(want, catAnswer("w1", r))
	}
	if _, err := p.SubmitBatch("alpha", want); err != nil {
		t.Fatal(err)
	}
	if err := submitOne(p, "alpha", "w2", 1, "price", tabular.NumberValue(99)); err != nil {
		t.Fatal(err)
	}
	want = append(want, tabular.Answer{Worker: "w2", Cell: tabular.Cell{Row: 1, Col: 1}, Value: tabular.NumberValue(99)})
	if err := p.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	p2, rep, err := Recover(7, walTestOpts(fs, wal.SyncAlways))
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer p2.Close()
	if rep.Projects != 2 || rep.Answers != len(want) || len(rep.TornProjects) != 0 {
		t.Fatalf("report = %+v, want 2 projects / %d answers / no torn", rep, len(want))
	}
	proj, err := p2.Project("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if got := proj.Log.All(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed log = %v, want %v", got, want)
	}
	if proj.refreshEvery != 5 || proj.Table.Entities[2] != "c" {
		t.Fatalf("registration config lost: refreshEvery=%d entities=%v", proj.refreshEvery, proj.Table.Entities)
	}
	if _, err := p2.RunInference("alpha"); err != nil {
		t.Fatalf("inference after recovery: %v", err)
	}
}

// TestCrashRecoveryLosesNoAcknowledgedAnswers is the kill-and-restart
// torture test: concurrent submitters race a hard crash injected mid-
// storm (a torn prefix of any in-flight frame survives, everything else
// unsynced is gone), and recovery must surface every answer whose
// SubmitBatch was acknowledged. Run under -race this also exercises the
// WAL append path's locking.
func TestCrashRecoveryLosesNoAcknowledgedAnswers(t *testing.T) {
	fs := wal.NewMemFS()
	p := NewWithOptions(1, walTestOpts(fs, wal.SyncAlways))
	const rows = 60
	if _, err := p.CreateProject("crash", demoSchema(), ProjectConfig{Rows: rows, RefreshEvery: 1000}); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var mu sync.Mutex
	var acked []tabular.Answer
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("w%d", w)
			for row := 0; row < rows; row += 3 {
				var batch []tabular.Answer
				for r := row; r < row+3 && r < rows; r++ {
					batch = append(batch, catAnswer(name, r))
				}
				if _, err := p.SubmitBatch("crash", batch); err != nil {
					if !errors.Is(err, ErrDurability) {
						t.Errorf("worker %s: unexpected error %v", name, err)
					}
					return // the disk died under us; nothing was acked
				}
				mu.Lock()
				acked = append(acked, batch...)
				mu.Unlock()
			}
		}(w)
	}
	// Pull the plug mid-storm: once a few dozen appends have hit the
	// filesystem, crash with an 11-byte torn prefix of whatever frame is
	// in flight.
	for fs.Writes() < 40 {
		runtime.Gosched()
	}
	fs.Crash(11)
	wg.Wait()
	_ = p.Close() // the wedged WAL may surface its sticky error; irrelevant here

	p2, rep, err := Recover(1, walTestOpts(fs.Recovered(), wal.SyncAlways))
	if err != nil {
		t.Fatalf("recovery after crash: %v", err)
	}
	defer p2.Close()
	if rep.Projects != 1 {
		t.Fatalf("recovered %d projects, want 1", rep.Projects)
	}
	proj, err := p2.Project("crash")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range acked {
		got, ok := proj.Log.WorkerAnswerIn(a.Worker, a.Cell)
		if !ok {
			t.Fatalf("acknowledged answer lost: %+v (recovered %d of %d acked)", a, proj.Log.Len(), len(acked))
		}
		if got.Value != a.Value {
			t.Fatalf("answer %v/%v corrupted: got %v want %v", a.Worker, a.Cell, got.Value, a.Value)
		}
	}
	t.Logf("acked %d answers before crash; recovered log holds %d", len(acked), proj.Log.Len())
}

// TestReplayEquivalence pins that recovery is a bitwise no-op for the
// model: the same answer stream run through a crash+replay produces
// estimates and worker qualities exactly equal to the never-crashed run.
// The WAL appends under the same lock and in the same order as the
// in-memory log, so replay reconstructs an identical log and the cold
// fit is deterministic.
func TestReplayEquivalence(t *testing.T) {
	submitAll := func(p *Platform) {
		t.Helper()
		if _, err := p.CreateProject("eq", demoSchema(), ProjectConfig{Rows: 10, RefreshEvery: 1000}); err != nil {
			t.Fatal(err)
		}
		var batch []tabular.Answer
		for w := 0; w < 4; w++ {
			for r := 0; r < 10; r++ {
				batch = append(batch, catAnswer(fmt.Sprintf("w%d", w), r))
				batch = append(batch, tabular.Answer{
					Worker: tabular.WorkerID(fmt.Sprintf("w%d", w)),
					Cell:   tabular.Cell{Row: r, Col: 1},
					Value:  tabular.NumberValue(float64(10*r + w)),
				})
			}
		}
		if _, err := p.SubmitBatch("eq", batch); err != nil {
			t.Fatal(err)
		}
	}

	// Never-crashed run.
	base := New(42)
	defer base.Close()
	submitAll(base)
	wantRes, err := base.RunInference("eq")
	if err != nil {
		t.Fatal(err)
	}

	// Crashed run: same stream into a durable platform, hard crash (no
	// Close), recover, infer.
	fs := wal.NewMemFS()
	p := NewWithOptions(42, walTestOpts(fs, wal.SyncAlways))
	submitAll(p)
	fs.Crash(0)
	_ = p.Close()
	p2, _, err := Recover(42, walTestOpts(fs.Recovered(), wal.SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	gotRes, err := p2.RunInference("eq")
	if err != nil {
		t.Fatal(err)
	}

	baseProj, _ := base.Project("eq")
	recProj, _ := p2.Project("eq")
	if !reflect.DeepEqual(recProj.Log.All(), baseProj.Log.All()) {
		t.Fatal("replayed answer log differs from never-crashed log")
	}
	if !reflect.DeepEqual(gotRes.Estimates, wantRes.Estimates) {
		t.Fatal("post-recovery estimates not bitwise-equal to never-crashed run")
	}
	if !reflect.DeepEqual(gotRes.WorkerQuality, wantRes.WorkerQuality) {
		t.Fatalf("post-recovery worker qualities differ: %v vs %v", gotRes.WorkerQuality, wantRes.WorkerQuality)
	}
}

// TestCloseFlushesWALAndIsIdempotent pins the Close-order bugfix: under
// fsync=never nothing is durable until Close, which must drain the
// shards and then flush+fsync every project's WAL — and a second Close
// must be a harmless no-op returning the same result.
func TestCloseFlushesWALAndIsIdempotent(t *testing.T) {
	fs := wal.NewMemFS()
	p := NewWithOptions(3, walTestOpts(fs, wal.SyncNever))
	if _, err := p.CreateProject("flush", demoSchema(), ProjectConfig{Rows: 3}); err != nil {
		t.Fatal(err)
	}
	batch := []tabular.Answer{catAnswer("w1", 0), catAnswer("w1", 1), catAnswer("w1", 2)}
	if _, err := p.SubmitBatch("flush", batch); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second close not idempotent: %v", err)
	}

	p2, rep, err := Recover(3, walTestOpts(fs.Recovered(), wal.SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if rep.Answers != len(batch) || len(rep.TornProjects) != 0 {
		t.Fatalf("after close-flush, report = %+v, want %d answers", rep, len(batch))
	}
}

// TestDurabilityFailureLeavesNoTrace: a failed WAL append rejects the
// batch with ErrDurability, records nothing in the in-memory log, and —
// because the log self-heals the torn tail — the retry succeeds and is
// the only thing a crash+recovery sees.
func TestDurabilityFailureLeavesNoTrace(t *testing.T) {
	fs := wal.NewMemFS()
	p := NewWithOptions(5, walTestOpts(fs, wal.SyncAlways))
	if _, err := p.CreateProject("faulty", demoSchema(), ProjectConfig{Rows: 3}); err != nil {
		t.Fatal(err)
	}
	proj, _ := p.Project("faulty")

	fs.FailWrite(1)
	batch := []tabular.Answer{catAnswer("w1", 0)}
	if _, err := p.SubmitBatch("faulty", batch); !errors.Is(err, ErrDurability) {
		t.Fatalf("want ErrDurability, got %v", err)
	}
	if proj.Log.Len() != 0 {
		t.Fatalf("rejected batch leaked into log: %d answers", proj.Log.Len())
	}
	if _, err := p.SubmitBatch("faulty", batch); err != nil {
		t.Fatalf("retry after healed append: %v", err)
	}
	fs.Crash(0)
	_ = p.Close()

	p2, rep, err := Recover(5, walTestOpts(fs.Recovered(), wal.SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if rep.Answers != 1 {
		t.Fatalf("recovered %d answers, want exactly the retried one", rep.Answers)
	}
}

// TestPlatformTornTailRecovery drives the torn-tail path end to end: a
// durable prefix from one serving session, an unsynced batch torn
// mid-frame by a crash, and a recovery that boots with the prefix and
// reports the project as torn instead of refusing or inventing answers.
func TestPlatformTornTailRecovery(t *testing.T) {
	fs := wal.NewMemFS()
	p := NewWithOptions(9, walTestOpts(fs, wal.SyncAlways))
	if _, err := p.CreateProject("torn", demoSchema(), ProjectConfig{Rows: 4}); err != nil {
		t.Fatal(err)
	}
	durable := []tabular.Answer{catAnswer("w1", 0), catAnswer("w1", 1)}
	if _, err := p.SubmitBatch("torn", durable); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Second session, fsync=never: the new batch sits in the page cache
	// when the power goes out mid-write.
	p2, _, err := Recover(9, walTestOpts(fs, wal.SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.SubmitBatch("torn", []tabular.Answer{catAnswer("w2", 2)}); err != nil {
		t.Fatal(err)
	}
	fs.Crash(5) // 5 bytes of the unsynced frame reach the platter
	_ = p2.Close()

	p3, rep, err := Recover(9, walTestOpts(fs.Recovered(), wal.SyncNever))
	if err != nil {
		t.Fatalf("torn tail must boot, got %v", err)
	}
	defer p3.Close()
	if len(rep.TornProjects) != 1 || rep.TornProjects[0] != "torn" {
		t.Fatalf("TornProjects = %v, want [torn]", rep.TornProjects)
	}
	proj, err := p3.Project("torn")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(proj.Log.All(), durable) {
		t.Fatalf("recovered log = %v, want the durable prefix %v", proj.Log.All(), durable)
	}
}

// TestRecoverRefusesMidLogCorruption: a bad frame before the tail is
// unattributable damage, not a torn write — boot must fail loudly with
// wal.ErrWALCorrupt instead of silently dropping history. The multi-
// segment log is built through the wal package directly (tiny segments,
// no compaction) so the corrupted segment is provably not the last.
func TestRecoverRefusesMidLogCorruption(t *testing.T) {
	fs := wal.NewMemFS()
	dir := "walroot/corrupt"
	l, _, err := wal.Open(dir, wal.Options{FS: fs, SegmentBytes: 64, CheckpointType: walRecCheckpoint})
	if err != nil {
		t.Fatal(err)
	}
	create, err := json.Marshal(walCreateJSON{ID: "corrupt", Schema: demoSchema(), Entities: nil})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(wal.Record{Type: walRecCreate, Data: create}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		blob, err := tabular.MarshalAnswers(demoSchema(), []tabular.Answer{catAnswer("w1", i)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(wal.Record{Type: walRecBatch, Data: blob}); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := l.Segments()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("need >=3 segments to corrupt a middle one, got %d", len(segs))
	}
	victim := filepath.Join(dir, segs[1])
	info, err := fs.Stat(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Truncate(victim, info.Size()-1); err != nil {
		t.Fatal(err)
	}

	_, _, err = Recover(1, walTestOpts(fs, wal.SyncAlways))
	if !errors.Is(err, wal.ErrWALCorrupt) {
		t.Fatalf("mid-log corruption booted anyway: %v", err)
	}
}

// TestRecoverIgnoresPolishFrac: logs written while projects still
// recorded polish_frac in their create record, and in the create info
// every checkpoint embeds, must keep recovering now that the setting is
// gone. One project's log starts with its create record, the other's
// with a checkpoint; both get an answer batch after it.
func TestRecoverIgnoresPolishFrac(t *testing.T) {
	type createWithPolishFrac struct {
		walCreateJSON
		PolishFrac float64 `json:"polish_frac"`
	}
	type checkpointWithPolishFrac struct {
		Create     createWithPolishFrac `json:"create"`
		Generation int                  `json:"generation"`
		Answers    json.RawMessage      `json:"answers"`
	}
	marshal := func(v any) []byte {
		t.Helper()
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(b), `"polish_frac":0.25`) {
			t.Fatalf("record lacks polish_frac: %s", b)
		}
		return b
	}
	batch := func(as ...tabular.Answer) []byte {
		t.Helper()
		b, err := tabular.MarshalAnswers(demoSchema(), as)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	fs := wal.NewMemFS()
	opts := walTestOpts(fs, wal.SyncAlways)
	want := map[string][]tabular.Answer{}
	for _, id := range []string{"created", "compacted"} {
		l, _, err := wal.Open(opts.WAL.projDir(id), opts.WAL.walOptions(""))
		if err != nil {
			t.Fatal(err)
		}
		create := createWithPolishFrac{
			walCreateJSON: walCreateJSON{ID: id, Schema: demoSchema(), Entities: []string{"a", "b", "c"}},
			PolishFrac:    0.25,
		}
		if _, err := l.Append(wal.Record{Type: walRecCreate, Data: marshal(create)}); err != nil {
			t.Fatal(err)
		}
		first := []tabular.Answer{catAnswer("w1", 0), catAnswer("w1", 1)}
		if _, err := l.Append(wal.Record{Type: walRecBatch, Data: batch(first...)}); err != nil {
			t.Fatal(err)
		}
		if id == "compacted" {
			ck := checkpointWithPolishFrac{Create: create, Generation: 1, Answers: batch(first...)}
			if err := l.Compact(wal.Record{Data: marshal(ck)}); err != nil {
				t.Fatal(err)
			}
		}
		last := catAnswer("w2", 2)
		if _, err := l.Append(wal.Record{Type: walRecBatch, Data: batch(last)}); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		want[id] = append(first, last)
	}

	p, rep, err := Recover(5, opts)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer p.Close()
	if rep.Projects != 2 || rep.Answers != 6 {
		t.Fatalf("report %+v, want 2 projects / 6 answers", rep)
	}
	for id, as := range want {
		proj, err := p.Project(id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(proj.Log.All(), as) {
			t.Fatalf("%s: replayed log = %v, want %v", id, proj.Log.All(), as)
		}
		if res, err := p.RunInference(id); err != nil || res.AnswersSeen != len(as) {
			t.Fatalf("%s: inference after recovery: %+v, %v", id, res, err)
		}
	}
}

// TestRecoverServesOutOfBoundNumber pins the replay side of the ±1e100
// answer bound: a WAL batch holding 2e154, acknowledged before the bound
// existed, still recovers into the log, and the project answers GET
// estimates with 200 and finite values (the model skips that answer)
// instead of a 500 for good.
func TestRecoverServesOutOfBoundNumber(t *testing.T) {
	fs := wal.NewMemFS()
	opts := walTestOpts(fs, wal.SyncAlways)
	l, _, err := wal.Open(opts.WAL.projDir("huge"), opts.WAL.walOptions(""))
	if err != nil {
		t.Fatal(err)
	}
	create, err := json.Marshal(walCreateJSON{ID: "huge", Schema: demoSchema(), Entities: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	price := func(w string, row int, x float64) tabular.Answer {
		return tabular.Answer{Worker: tabular.WorkerID(w), Cell: tabular.Cell{Row: row, Col: 1}, Value: tabular.NumberValue(x)}
	}
	as := []tabular.Answer{catAnswer("w1", 0), price("w1", 0, 10), price("w2", 0, 12), price("w3", 0, 2e154), price("w2", 1, 30)}
	batch, err := tabular.MarshalAnswers(demoSchema(), as)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []wal.Record{{Type: walRecCreate, Data: create}, {Type: walRecBatch, Data: batch}} {
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	p, rep, err := Recover(5, opts)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer p.Close()
	if rep.Answers != len(as) {
		t.Fatalf("recovered %d answers, want %d", rep.Answers, len(as))
	}
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/projects/huge/estimates?min_generation=2147483647")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var est api.EstimatesResponse
	if err := json.NewDecoder(resp.Body).Decode(&est); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("estimates after recovery: status %d, %v", resp.StatusCode, err)
	}
	if est.AnswersSeen != len(as) || len(est.Estimates) == 0 {
		t.Fatalf("estimates after recovery: %+v", est)
	}
	for _, e := range est.Estimates {
		if e.Number != nil && (math.IsInf(*e.Number, 0) || math.IsNaN(*e.Number)) {
			t.Fatalf("non-finite estimate %+v", e)
		}
	}
}

// TestDeleteProjectDurable: deletion survives restart (the directory is
// tombstone-renamed then removed), and a tombstone left by a crash
// mid-delete is finished — reaped, never resurrected — at the next boot.
func TestDeleteProjectDurable(t *testing.T) {
	fs := wal.NewMemFS()
	p := NewWithOptions(11, walTestOpts(fs, wal.SyncAlways))
	for _, id := range []string{"keep", "drop"} {
		if _, err := p.CreateProject(id, demoSchema(), ProjectConfig{Rows: 2}); err != nil {
			t.Fatal(err)
		}
		if _, err := p.SubmitBatch(id, []tabular.Answer{catAnswer("w1", 0)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.DeleteProject("drop"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Project("drop"); !errors.Is(err, ErrNoProject) {
		t.Fatalf("deleted project still served: %v", err)
	}
	if err := p.DeleteProject("drop"); !errors.Is(err, ErrNoProject) {
		t.Fatalf("double delete: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2, rep, err := Recover(11, walTestOpts(fs, wal.SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Projects != 1 {
		t.Fatalf("deleted project resurrected: report %+v", rep)
	}
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}

	// Crashed delete: the rename committed but the removal never ran.
	if err := fs.Rename("walroot/keep", "walroot/keep"+walTombstoneSuffix); err != nil {
		t.Fatal(err)
	}
	p3, rep, err := Recover(11, walTestOpts(fs, wal.SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	defer p3.Close()
	if rep.Projects != 0 {
		t.Fatalf("tombstoned project replayed: report %+v", rep)
	}
	entries, err := fs.ReadDir("walroot")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Fatalf("tombstone not reaped: %s left in wal root", e.Name())
	}
}

// TestCreateProjectOverExistingLogRefused: a fresh platform (not
// Recover) pointed at a WAL root that already holds records for an ID
// must refuse the create as a duplicate — silently appending to another
// incarnation's log would interleave two histories.
func TestCreateProjectOverExistingLogRefused(t *testing.T) {
	fs := wal.NewMemFS()
	p := NewWithOptions(13, walTestOpts(fs, wal.SyncAlways))
	if _, err := p.CreateProject("dup", demoSchema(), ProjectConfig{Rows: 2}); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2 := NewWithOptions(13, walTestOpts(fs, wal.SyncAlways))
	defer p2.Close()
	if _, err := p2.CreateProject("dup", demoSchema(), ProjectConfig{Rows: 2}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("create over live log: %v", err)
	}
}

// TestWatchEventChangedCells pins the bounded changed-cell payload: a
// small publish ships every moved cell with entity/column coordinates;
// a publish moving more than api.MaxChangedCells ships exactly the cap
// with the overflow marker set (the count still reports the true total).
func TestWatchEventChangedCells(t *testing.T) {
	p := New(17)
	defer p.Close()
	if _, err := p.CreateProject("small", demoSchema(), ProjectConfig{Rows: 4, RefreshEvery: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.SubmitBatch("small", []tabular.Answer{catAnswer("w1", 0), catAnswer("w1", 1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunInference("small"); err != nil {
		t.Fatal(err)
	}
	ev, ok, err := p.LatestEvent("small")
	if err != nil || !ok {
		t.Fatalf("no watch event: ok=%v err=%v", ok, err)
	}
	if ev.ChangedCells == 0 || ev.CellsOverflow {
		t.Fatalf("small publish: changed=%d overflow=%v", ev.ChangedCells, ev.CellsOverflow)
	}
	if len(ev.Cells) != ev.ChangedCells {
		t.Fatalf("cells list (%d) != changed count (%d) under the cap", len(ev.Cells), ev.ChangedCells)
	}
	for _, c := range ev.Cells {
		if c.Entity == "" || (c.Column != "category" && c.Column != "price") {
			t.Fatalf("malformed cell coordinate: %+v", c)
		}
	}

	const rows = 80 // one answered column => >MaxChangedCells moved cells
	if _, err := p.CreateProject("big", demoSchema(), ProjectConfig{Rows: rows, RefreshEvery: 1}); err != nil {
		t.Fatal(err)
	}
	var batch []tabular.Answer
	for r := 0; r < rows; r++ {
		batch = append(batch, catAnswer("w1", r))
	}
	if _, err := p.SubmitBatch("big", batch); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunInference("big"); err != nil {
		t.Fatal(err)
	}
	ev, ok, err = p.LatestEvent("big")
	if err != nil || !ok {
		t.Fatalf("no watch event: ok=%v err=%v", ok, err)
	}
	if ev.ChangedCells <= api.MaxChangedCells {
		t.Fatalf("publish moved only %d cells; test needs > %d", ev.ChangedCells, api.MaxChangedCells)
	}
	if !ev.CellsOverflow || len(ev.Cells) != api.MaxChangedCells {
		t.Fatalf("overflow publish: overflow=%v len(cells)=%d want capped at %d",
			ev.CellsOverflow, len(ev.Cells), api.MaxChangedCells)
	}
}

// TestPerProjectFsyncPolicy pins the per-project durability override: a
// "hot" project created with fsync=always on a platform whose default is
// fsync=never keeps every acknowledged batch across a hard crash, while
// a sibling project on the lazy default loses its unsynced batches (the
// create record itself is force-synced regardless of policy, so the
// project survives empty). Recovery must re-apply the override from the
// create record: batches written after a restart are crash-durable too.
func TestPerProjectFsyncPolicy(t *testing.T) {
	fs := wal.NewMemFS()
	p := NewWithOptions(3, walTestOpts(fs, wal.SyncNever))
	if _, err := p.CreateProject("hot", demoSchema(), ProjectConfig{Rows: 4, FsyncPolicy: "always"}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CreateProject("lazy", demoSchema(), ProjectConfig{Rows: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CreateProject("bad", demoSchema(), ProjectConfig{Rows: 4, FsyncPolicy: "sometimes"}); err == nil {
		t.Fatal("invalid fsync policy accepted")
	}
	hotBatch := []tabular.Answer{catAnswer("w1", 0), catAnswer("w1", 1)}
	if _, err := p.SubmitBatch("hot", hotBatch); err != nil {
		t.Fatal(err)
	}
	if _, err := p.SubmitBatch("lazy", []tabular.Answer{catAnswer("w1", 0)}); err != nil {
		t.Fatal(err)
	}
	fs.Crash(0) // hard kill: unsynced bytes are gone

	fs2 := fs.Recovered()
	p2, rep, err := Recover(3, walTestOpts(fs2, wal.SyncNever))
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rep.Projects != 2 {
		t.Fatalf("report = %+v, want both projects back", rep)
	}
	hot, err := p2.Project("hot")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hot.Log.All(), hotBatch) {
		t.Fatalf("fsync=always project lost acknowledged answers: %v", hot.Log.All())
	}
	if hot.fsyncPolicy != "always" {
		t.Fatalf("recovered override = %q, want always", hot.fsyncPolicy)
	}
	lazy, err := p2.Project("lazy")
	if err != nil {
		t.Fatal(err)
	}
	if lazy.Log.Len() != 0 {
		t.Fatalf("fsync=never project kept %d unsynced answers past a crash", lazy.Log.Len())
	}

	// The override must survive the restart, not just the record: a batch
	// accepted by the recovered platform is durable across a second crash.
	if _, err := p2.SubmitBatch("hot", []tabular.Answer{catAnswer("w2", 2)}); err != nil {
		t.Fatal(err)
	}
	fs2.Crash(0)
	_ = p2.Close()
	p3, _, err := Recover(3, walTestOpts(fs2.Recovered(), wal.SyncNever))
	if err != nil {
		t.Fatalf("second recover: %v", err)
	}
	defer p3.Close()
	hot3, err := p3.Project("hot")
	if err != nil {
		t.Fatal(err)
	}
	if hot3.Log.Len() != 3 {
		t.Fatalf("post-recovery batch on fsync=always project not durable: %d answers", hot3.Log.Len())
	}
}
