package platform

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"tcrowd/internal/reputation"
	"tcrowd/internal/tabular"
)

// spamSchema is a single 3-label categorical column: every cell's honest
// consensus is deterministic (label row%3), so disagreement is entirely
// under the test's control.
func spamSchema() tabular.Schema {
	return tabular.Schema{
		Key: "item",
		Columns: []tabular.Column{
			{Name: "category", Type: tabular.Categorical, Labels: []string{"a", "b", "c"}},
		},
	}
}

// honestMeta / spamMeta are the two work-time profiles: deliberate vs
// implausibly fast (under the engine's default 500ms floor).
func honestMeta() AnswerMeta { return AnswerMeta{WorkTimeMs: 3000} }
func spamMeta() AnswerMeta   { return AnswerMeta{WorkTimeMs: 80} }

// spamStream builds an interleaved answer stream over `rows` cells:
// honest workers h1..hN agree on label row%3 with deliberate timing,
// spam workers s1..sM give label (row+1)%3 implausibly fast. Honest
// answers come first per cell so the prior-aggregate is seeded before
// spammers are judged against it.
func spamStream(rows, honest, spam int) ([]tabular.Answer, []AnswerMeta) {
	var as []tabular.Answer
	var ms []AnswerMeta
	for r := 0; r < rows; r++ {
		for h := 1; h <= honest; h++ {
			as = append(as, tabular.Answer{
				Worker: tabular.WorkerID(fmt.Sprintf("h%d", h)),
				Cell:   tabular.Cell{Row: r, Col: 0},
				Value:  tabular.LabelValue(r % 3),
			})
			ms = append(ms, honestMeta())
		}
		for s := 1; s <= spam; s++ {
			as = append(as, tabular.Answer{
				Worker: tabular.WorkerID(fmt.Sprintf("s%d", s)),
				Cell:   tabular.Cell{Row: r, Col: 0},
				Value:  tabular.LabelValue((r + 1) % 3),
			})
			ms = append(ms, spamMeta())
		}
	}
	return as, ms
}

// newRepPlatform builds an in-memory platform with one reputation-enabled
// project whose inference refresh is effectively disabled (so reputation
// state is a pure function of the submitted stream, with no async
// model-quality feedback racing the assertions).
func newRepPlatform(t *testing.T, rows int) *Platform {
	t.Helper()
	p := NewWithOptions(1, Options{Workers: 1})
	t.Cleanup(func() { p.Close() })
	_, err := p.CreateProject("rep", spamSchema(), ProjectConfig{
		Rows:         rows,
		RefreshEvery: 1 << 30,
		Reputation:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestReputationVerdictsBatchSplitInvariant is the determinism property:
// the same answer stream must produce bit-identical final reputation
// state however it is chopped into submission batches. The stream is
// sized to drive spammers into quarantine but not ban (a ban would
// reject later batches and fork the accepted streams between splits —
// a different property, covered by the ban tests).
func TestReputationVerdictsBatchSplitInvariant(t *testing.T) {
	const rows = 20
	answers, metas := spamStream(rows, 3, 2)

	run := func(batch int) []WorkerReputationInfo {
		p := newRepPlatform(t, rows)
		for at := 0; at < len(answers); at += batch {
			end := min(at+batch, len(answers))
			if _, err := p.SubmitBatchMeta("rep", answers[at:end], metas[at:end]); err != nil {
				t.Fatalf("batch=%d at=%d: %v", batch, at, err)
			}
		}
		infos, enabled, err := p.WorkerReputations("rep")
		if err != nil || !enabled {
			t.Fatalf("WorkerReputations: enabled=%v err=%v", enabled, err)
		}
		return infos
	}

	want := run(len(answers)) // one atomic batch
	for _, batch := range []int{1, 3, 7} {
		if got := run(batch); !reflect.DeepEqual(got, want) {
			t.Errorf("batch size %d diverged:\n got %+v\nwant %+v", batch, got, want)
		}
	}

	// The stream must actually have exercised the graduated response.
	quarantined := 0
	for _, in := range want {
		if in.Worker[0] == 's' && in.State >= reputation.Quarantined {
			quarantined++
		}
		if in.Worker[0] == 'h' && in.State != reputation.Active {
			t.Errorf("honest worker %s left Active: %+v", in.Worker, in)
		}
	}
	if quarantined == 0 {
		t.Fatalf("no spammer reached quarantine — stream too short to prove anything: %+v", want)
	}
}

// TestReputationBanRejectsSubmissionsAndTasks drives a spammer to the
// auto-ban and pins the wire-visible consequences: per-item
// ErrWorkerBanned on submission, ErrWorkerBanned from the task path,
// and honest workers untouched throughout.
func TestReputationBanRejectsSubmissionsAndTasks(t *testing.T) {
	const rows = 40
	p := newRepPlatform(t, rows)
	answers, metas := spamStream(rows, 3, 1)
	var bannedAt int
	for i := range answers {
		_, err := p.SubmitBatchMeta("rep", answers[i:i+1], metas[i:i+1])
		if err == nil {
			continue
		}
		if answers[i].Worker != "s1" || !errors.Is(err, ErrWorkerBanned) {
			t.Fatalf("answer %d (%s) rejected with %v", i, answers[i].Worker, err)
		}
		if bannedAt == 0 {
			bannedAt = i
		}
	}
	if bannedAt == 0 {
		t.Fatal("spammer never banned")
	}

	// Banned: task requests are refused with the typed sentinel.
	if _, err := p.RequestTasks("rep", "s1", 1); !errors.Is(err, ErrWorkerBanned) {
		t.Fatalf("banned task request: %v", err)
	}
	// Honest: still served.
	if _, err := p.RequestTasks("rep", "h1", 1); err != nil {
		t.Fatalf("honest task request: %v", err)
	}

	infos, _, err := p.WorkerReputations("rep")
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range infos {
		switch {
		case in.Worker == "s1":
			if in.State != reputation.Banned || in.Weight != 0 {
				t.Errorf("spammer state: %+v", in)
			}
		case in.State != reputation.Active || in.Weight != 1:
			t.Errorf("honest worker %s: %+v", in.Worker, in)
		}
	}
}

// TestQuarantineStarvesAssignment pins the graduated middle response: a
// quarantined (not banned) worker gets an empty task list without error,
// and its submissions are still accepted (the fold keeps feeding).
func TestQuarantineStarvesAssignment(t *testing.T) {
	const rows = 18
	p := newRepPlatform(t, rows+1) // one spare row for the post-quarantine submission
	answers, metas := spamStream(rows, 3, 1)
	if _, err := p.SubmitBatchMeta("rep", answers, metas); err != nil {
		t.Fatal(err)
	}
	infos, _, err := p.WorkerReputations("rep")
	if err != nil {
		t.Fatal(err)
	}
	var state reputation.State
	for _, in := range infos {
		if in.Worker == "s1" {
			state = in.State
		}
	}
	if state != reputation.Quarantined {
		t.Fatalf("spammer state = %v, want Quarantined (tune stream length)", state)
	}
	tasks, err := p.RequestTasks("rep", "s1", 3)
	if err != nil || len(tasks) != 0 {
		t.Fatalf("quarantined tasks = %v, %v; want empty, nil", tasks, err)
	}
	// Submissions from quarantine are still accepted — recovery and
	// escalation both need the stream.
	extra := tabular.Answer{Worker: "s1", Cell: tabular.Cell{Row: rows, Col: 0}, Value: tabular.LabelValue(0)}
	if _, err := p.SubmitBatchMeta("rep", []tabular.Answer{extra}, []AnswerMeta{honestMeta()}); err != nil {
		t.Fatalf("quarantined submission rejected: %v", err)
	}
}

// TestWorkerReputationsDisabled: a project without the defense reports
// (nil, false, nil) rather than inventing empty state.
func TestWorkerReputationsDisabled(t *testing.T) {
	p := NewWithOptions(1, Options{Workers: 1})
	defer p.Close()
	if _, err := p.CreateProject("plain", demoSchema(), ProjectConfig{Rows: 2}); err != nil {
		t.Fatal(err)
	}
	infos, enabled, err := p.WorkerReputations("plain")
	if err != nil || enabled || infos != nil {
		t.Fatalf("disabled project: infos=%v enabled=%v err=%v", infos, enabled, err)
	}
	if _, _, err := p.WorkerReputations("ghost"); !errors.Is(err, ErrNoProject) {
		t.Fatalf("unknown project: %v", err)
	}
}
