package client

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"tcrowd/api"
	"tcrowd/internal/platform"
	"tcrowd/internal/simulate"
	"tcrowd/internal/stats"
	"tcrowd/internal/tabular"
)

// This file is the adversarial end-to-end suite of the spam-defense work:
// simulated worker personas (honest, random junk, coordinated fast
// deceivers, a sleeper) drive the full /v1 surface through the official
// SDK against a live httptest server, once with the reputation defense on
// and once off, over the SAME pre-drawn answer stream. The defense must
// never touch an honest worker, must quarantine-or-ban the spammers, and
// must buy a pinned accuracy margin on the final estimates.

// apiSchema converts an internal schema to its wire form.
func apiSchema(s tabular.Schema) api.Schema {
	out := api.Schema{Key: s.Key}
	for _, col := range s.Columns {
		ac := api.Column{Name: col.Name, Min: col.Min, Max: col.Max}
		if col.Type == tabular.Categorical {
			ac.Type = "categorical"
			ac.Labels = col.Labels
		} else {
			ac.Type = "continuous"
		}
		out.Columns = append(out.Columns, ac)
	}
	return out
}

// apiAnswer converts a drawn answer plus its work time to the wire form.
func apiAnswer(s tabular.Schema, a tabular.Answer, ms int64) api.Answer {
	col := s.Columns[a.Cell.Col]
	out := api.Answer{
		Worker:     string(a.Worker),
		Row:        a.Cell.Row,
		Column:     col.Name,
		WorkTimeMs: ms,
		Client:     "simulate/1",
	}
	if col.Type == tabular.Categorical {
		l := col.Labels[a.Value.L]
		out.Label = &l
	} else {
		x := a.Value.X
		out.Number = &x
	}
	return out
}

// wireBatch is one worker's batch submission in arrival order.
type wireBatch struct {
	worker  string
	answers []api.Answer
}

// adversarialDataset plants an all-categorical table with a 50%-spam
// population: 1 random junk, 3 coordinated deceivers and 1 sleeper
// against 5 honest workers. Combined with the honest workers' partial
// coverage below, the coordinated bloc outvotes honest consensus on most
// cells — the regime where the undefended model actually gets flipped.
// All-categorical keeps accuracy a clean label-match count.
func adversarialDataset() *simulate.Dataset {
	return simulate.Generate(stats.NewRNG(11), simulate.TableConfig{
		Rows:      30,
		Cols:      3,
		CatRatio:  1,
		MinLabels: 3,
		MaxLabels: 4,
		Population: simulate.PopulationConfig{
			N:                10,
			MedianPhi:        0.12,
			JunkFrac:         0.1,
			DeceiverFrac:     0.3,
			SleeperFrac:      0.1,
			SleeperTurnAfter: 25,
		},
	})
}

// adversarialStream pre-draws the whole submission sequence so the
// defense-on and defense-off runs replay IDENTICAL traffic: cells are
// visited in row-major windows; within each window every worker submits
// its answers for that window as one batch, honest workers first (seeding
// each cell's peer consensus before spammers hit it, as task-ordered
// collection does). Honest workers cover ~60% of cells; spam personas
// blanket everything — full coverage is what makes the attack hurt.
func adversarialStream(ds *simulate.Dataset, seed int64) []wireBatch {
	cr := simulate.NewCrowd(ds, seed)
	cov := stats.NewRNG(seed + 1)
	rows, cols := ds.Table.NumRows(), ds.Table.NumCols()
	var cells []tabular.Cell
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			cells = append(cells, tabular.Cell{Row: i, Col: j})
		}
	}
	var order []int
	for i := range ds.Workers {
		if ds.Workers[i].Persona == simulate.Honest {
			order = append(order, i)
		}
	}
	for i := range ds.Workers {
		if ds.Workers[i].Persona != simulate.Honest {
			order = append(order, i)
		}
	}
	const window = 6
	var out []wireBatch
	for at := 0; at < len(cells); at += window {
		win := cells[at:min(at+window, len(cells))]
		for _, wi := range order {
			w := &ds.Workers[wi]
			var batch []api.Answer
			for _, c := range win {
				if w.Persona == simulate.Honest && cov.Float64() > 0.45 {
					continue
				}
				a, ms := cr.AnswerMeta(w, c)
				batch = append(batch, apiAnswer(ds.Table.Schema, a, ms))
			}
			if len(batch) > 0 {
				out = append(out, wireBatch{worker: string(w.ID), answers: batch})
			}
		}
	}
	return out
}

// runAdversarial replays the stream through the SDK against a fresh
// server with the defense on or off, tolerating only worker_banned
// rejections of spam personas, and returns the final fresh-read accuracy
// plus which workers got rejected along the way.
func runAdversarial(t *testing.T, ds *simulate.Dataset, stream []wireBatch, defense bool) (*Client, string, float64, map[string]bool) {
	t.Helper()
	c, _ := newTestServer(t)
	ctx := context.Background()
	id := fmt.Sprintf("adv-defense-%v", defense)
	if err := c.CreateProject(ctx, api.CreateProjectRequest{
		ID:           id,
		Schema:       apiSchema(ds.Table.Schema),
		Rows:         ds.Table.NumRows(),
		RefreshEvery: 40,
		Reputation:   defense,
	}); err != nil {
		t.Fatal(err)
	}
	rejected := make(map[string]bool)
	recorded, gen := 0, 0
	for _, b := range stream {
		if rejected[b.worker] {
			continue // a real client stops hammering after a 403
		}
		resp, err := c.SubmitAnswers(ctx, id, b.answers)
		if err != nil {
			w := ds.WorkerByID(tabular.WorkerID(b.worker))
			if !IsWorkerBanned(err) || w == nil || w.Persona == simulate.Honest {
				t.Fatalf("defense=%v: worker %s rejected: %v", defense, b.worker, err)
			}
			rejected[b.worker] = true
			continue
		}
		recorded += resp.Recorded
		if resp.Refresh == api.RefreshEnqueued {
			// Let the refresh publish before the next batch lands, so each
			// refresh fits exactly the log prefix that triggered it and the
			// EM path does not depend on scheduling.
			gen = awaitAnswersSeen(t, c, id, gen, recorded)
		}
	}

	// Strongly consistent read: every accepted answer is reflected.
	est, err := c.AllEstimates(ctx, id, 64, EstimatesQuery{MinGeneration: api.GenerationFresh})
	if err != nil {
		t.Fatalf("defense=%v: estimates: %v", defense, err)
	}
	colIdx := make(map[string]int)
	for j, col := range ds.Table.Schema.Columns {
		colIdx[col.Name] = j
	}
	matched, total := 0, 0
	for _, e := range est.Estimates {
		if e.Label == nil {
			continue
		}
		var row int
		if _, err := fmt.Sscanf(e.Entity, "entity-%d", &row); err != nil {
			t.Fatalf("unparseable entity %q", e.Entity)
		}
		j := colIdx[e.Column]
		truth := ds.Table.TruthAt(tabular.Cell{Row: row - 1, Col: j})
		total++
		if ds.Table.Schema.Columns[j].Labels[truth.L] == *e.Label {
			matched++
		}
	}
	if total == 0 {
		t.Fatalf("defense=%v: no categorical estimates", defense)
	}
	return c, id, float64(matched) / float64(total), rejected
}

// awaitAnswersSeen watches project id past generation gen until a publish
// reflects at least n answers, and returns that publish's generation.
func awaitAnswersSeen(t *testing.T, c *Client, id string, gen, n int) int {
	t.Helper()
	for {
		ev, err := c.Watch(context.Background(), id, gen, 10*time.Second)
		if err != nil {
			t.Fatalf("watch %s after %d: %v", id, gen, err)
		}
		if ev == nil {
			t.Fatalf("watch %s: no publish covering %d answers after generation %d", id, n, gen)
		}
		gen = ev.Generation
		if ev.AnswersSeen >= n {
			return gen
		}
	}
}

// TestAdversarialSpamDefenseEndToEnd is the headline acceptance test:
// same spam-laced traffic, defense on vs off, through the real wire.
func TestAdversarialSpamDefenseEndToEnd(t *testing.T) {
	ds := adversarialDataset()
	stream := adversarialStream(ds, 29)
	ctx := context.Background()

	cOff, idOff, accOff, rejOff := runAdversarial(t, ds, stream, false)
	if len(rejOff) != 0 {
		t.Fatalf("defense off rejected workers: %v", rejOff)
	}
	respOff, err := cOff.Workers(ctx, idOff)
	if err != nil || respOff.Defense {
		t.Fatalf("defense-off roster: %+v %v", respOff, err)
	}

	cOn, idOn, accOn, rejOn := runAdversarial(t, ds, stream, true)
	t.Logf("accuracy: defense off %.3f, on %.3f; banned on-wire: %v", accOff, accOn, rejOn)

	// The defense must buy a real accuracy margin on identical traffic.
	if accOn < accOff+0.10 {
		t.Fatalf("defense accuracy %.3f < off %.3f + 0.10 margin", accOn, accOff)
	}
	// At least one spammer must have hit the wire-level ban while the
	// stream was still flowing.
	if len(rejOn) == 0 {
		t.Fatal("no worker was banned on the wire with the defense on")
	}

	// Roster: honest workers untouched, junk and deceivers all
	// quarantined or banned (the sleeper's verdict depends on how soon it
	// turned; it must at least not be fully trusted anymore).
	resp, err := cOn.Workers(ctx, idOn)
	if err != nil || !resp.Defense {
		t.Fatalf("defense-on roster: %+v %v", resp, err)
	}
	states := make(map[string]string)
	for _, wr := range resp.Workers {
		states[wr.Worker] = wr.State
	}
	banned := ""
	for _, w := range ds.Workers {
		st := states[string(w.ID)]
		switch w.Persona {
		case simulate.Honest:
			if st != "active" {
				t.Errorf("honest worker %s not active: %q", w.ID, st)
			}
		case simulate.RandomJunk, simulate.FastDeceiver:
			if st != "quarantined" && st != "banned" {
				t.Errorf("spammer %s escaped: state %q", w.ID, st)
			}
			if st == "banned" {
				banned = string(w.ID)
			}
		case simulate.Sleeper:
			if st == "" {
				t.Errorf("sleeper %s missing from roster", w.ID)
			}
		}
	}
	if banned == "" {
		t.Fatal("no junk/deceiver reached the ban")
	}

	// Task assignment is gated: the banned worker gets the typed 403,
	// honest workers still get served without error.
	if _, err := cOn.Tasks(ctx, idOn, banned, 1); !IsWorkerBanned(err) {
		t.Fatalf("banned worker task request: %v", err)
	}
	var honest string
	for _, w := range ds.Workers {
		if w.Persona == simulate.Honest {
			honest = string(w.ID)
			break
		}
	}
	if _, err := cOn.Tasks(ctx, idOn, honest, 1); err != nil {
		t.Fatalf("honest worker task request: %v", err)
	}
}

// TestRateLimitEndToEnd drives the per-worker token buckets over the real
// wire: typed 429 with Retry-After once the burst is spent, all-or-nothing
// charging for atomic batches, per-worker isolation, and the SDK's
// automatic backoff-and-retry path.
func TestRateLimitEndToEnd(t *testing.T) {
	p := platform.New(7)
	h := platform.NewServer(p)
	h.SetRateLimiter(platform.NewRateLimiter(platform.RateLimiterConfig{Rate: 2, Burst: 3}))
	srv := httptest.NewServer(h)
	t.Cleanup(func() { srv.Close(); p.Close() })
	c := New(srv.URL, WithMaxRetries(0)) // surface 429s instead of retrying
	ctx := context.Background()

	if err := c.CreateProject(ctx, api.CreateProjectRequest{ID: "lim", Schema: schema(), Rows: 50}); err != nil {
		t.Fatal(err)
	}

	// Burst of 3 accepted, 4th answers a typed retryable 429.
	for i := 0; i < 3; i++ {
		if _, err := c.SubmitAnswer(ctx, "lim", api.LabelAnswer("w1", i, "category", "book")); err != nil {
			t.Fatalf("burst submit %d: %v", i, err)
		}
	}
	_, err := c.SubmitAnswer(ctx, "lim", api.LabelAnswer("w1", 3, "category", "book"))
	ae := asAPIError(t, err)
	if ae.Status != 429 || ae.Code != api.CodeRateLimited || !ae.Retryable || ae.RetryAfter < time.Second {
		t.Fatalf("over-limit submit: %+v", ae)
	}
	// Task requests draw from the same bucket.
	if _, err := c.Tasks(ctx, "lim", "w1", 1); asAPIError(t, err).Code != api.CodeRateLimited {
		t.Fatalf("over-limit tasks: %v", err)
	}
	// Another worker's bucket is untouched.
	if _, err := c.Tasks(ctx, "lim", "w2", 1); err != nil {
		t.Fatalf("independent worker throttled: %v", err)
	}

	// Atomic batch, atomic charge: a 4-answer batch exceeds w3's burst of
	// 3 and is refused — but charges nothing, so a 3-answer batch still
	// fits afterwards.
	big := []api.Answer{
		api.LabelAnswer("w3", 0, "category", "book"),
		api.LabelAnswer("w3", 1, "category", "book"),
		api.LabelAnswer("w3", 2, "category", "book"),
		api.LabelAnswer("w3", 3, "category", "book"),
	}
	if _, err := c.SubmitAnswers(ctx, "lim", big); asAPIError(t, err).Code != api.CodeRateLimited {
		t.Fatalf("oversize batch: %v", err)
	}
	if _, err := c.SubmitAnswers(ctx, "lim", big[:3]); err != nil {
		t.Fatalf("refused batch was charged anyway: %v", err)
	}

	// The default SDK config handles the 429 itself: honour Retry-After,
	// back off, succeed.
	retrying := New(srv.URL)
	if _, err := retrying.SubmitAnswer(ctx, "lim", api.LabelAnswer("w3", 4, "category", "book")); err != nil {
		t.Fatalf("SDK auto-retry after 429: %v", err)
	}
}

func asAPIError(t *testing.T, err error) *APIError {
	t.Helper()
	ae, ok := err.(*APIError)
	if !ok {
		t.Fatalf("want *APIError, got %T: %v", err, err)
	}
	return ae
}
