package main

import (
	"math/rand"

	"tcrowd/api"
	"tcrowd/internal/simulate"
	"tcrowd/internal/tabular"
)

// table is one generated project input: a table with planted truth, its
// simulated crowd, and the answers that crowd gives.
type table struct {
	ds    *simulate.Dataset
	crowd *simulate.Crowd
	// plan is every answer the workload may send, in sending order.
	plan []tabular.Answer
}

// labelsPerColumn fixes every categorical column's label-set size (the
// generator's default draws it from U(2,10) per seed), so per-cell EM and
// gain-scoring work is the same for every seed and runs with different
// seeds measure the same amount of work.
const labelsPerColumn = 5

// genTable draws a rows x cols table (half categorical with
// labelsPerColumn labels, half continuous, interleaved) and a crowd of n
// workers with no spammers from the simulator's generative model. The same
// (seed, k) always yields the same table, crowd and answers.
func genTable(seed int64, k, rows, cols, workers int) *table {
	rng := rand.New(rand.NewSource(seed*7919 + int64(k)*104729 + 1))
	ds := simulate.Generate(rng, simulate.TableConfig{
		Rows:     rows,
		Cols:     cols,
		CatRatio: 0.5,
		// Fixed label-set size; see labelsPerColumn.
		MinLabels: labelsPerColumn,
		MaxLabels: labelsPerColumn,
		// A negative fraction means no spammers: this crowd is honest,
		// so the projects run with reputation off.
		Population: simulate.PopulationConfig{N: workers, SpammerFrac: -1},
	})
	return &table{ds: ds, crowd: simulate.NewCrowd(ds, seed*31+int64(k))}
}

// fixedPlan fills t.plan with FixedAssignment(perCell) answers (one HIT is
// one worker answering a whole row) and returns the HITs in log order.
func (t *table) fixedPlan(perCell int) [][]tabular.Answer {
	log := t.crowd.FixedAssignment(perCell)
	all := log.All()
	t.plan = append([]tabular.Answer(nil), all...)
	cols := t.ds.Table.NumCols()
	hits := make([][]tabular.Answer, 0, len(all)/cols)
	for i := 0; i+cols <= len(all); i += cols {
		hits = append(hits, all[i:i+cols])
	}
	return hits
}

// shuffleHITs permutes hits with the seed's own stream.
func shuffleHITs(seed int64, hits [][]tabular.Answer) {
	rng := rand.New(rand.NewSource(seed*15485863 + 3))
	rng.Shuffle(len(hits), func(i, j int) { hits[i], hits[j] = hits[j], hits[i] })
}

// apiSchema converts a table schema to its wire form.
func apiSchema(s tabular.Schema) api.Schema {
	out := api.Schema{Key: s.Key}
	for _, c := range s.Columns {
		out.Columns = append(out.Columns, api.Column{
			Name: c.Name, Type: c.Type.String(), Labels: c.Labels, Min: c.Min, Max: c.Max,
		})
	}
	return out
}

// apiAnswers converts answers to their wire form.
func apiAnswers(s tabular.Schema, as []tabular.Answer) []api.Answer {
	out := make([]api.Answer, len(as))
	for i, a := range as {
		col := s.Columns[a.Cell.Col]
		w := api.Answer{Worker: string(a.Worker), Row: a.Cell.Row, Column: col.Name}
		if a.Value.Kind == tabular.Label {
			l := col.Labels[a.Value.L]
			w.Label = &l
		} else {
			x := a.Value.X
			w.Number = &x
		}
		out[i] = w
	}
	return out
}

// defaultRefreshEvery is the platform's default refresh cadence, which
// every workload's projects keep.
const defaultRefreshEvery = 25

// createRequest is the wire request creating project id for t.
func createRequest(id string, t *table, tcrowdAssign bool) api.CreateProjectRequest {
	return api.CreateProjectRequest{
		ID:               id,
		Schema:           apiSchema(t.ds.Table.Schema),
		Rows:             t.ds.Table.NumRows(),
		TCrowdAssignment: tcrowdAssign,
	}
}
