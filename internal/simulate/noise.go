package simulate

import (
	"math/rand"

	"tcrowd/internal/stats"
	"tcrowd/internal/tabular"
)

// AddNoise implements the perturbation protocol of Sec. 6.5.2: it picks
// round(gamma * |A|) answers uniformly at random *with replacement* and
// perturbs each draw (an answer drawn twice is perturbed twice):
//
//   - a categorical answer is replaced by a label drawn uniformly from the
//     column's domain;
//   - a continuous answer is z-scored against the column's answers, gets
//     N(0,1) noise added in z-space, and is mapped back to natural units.
//
// The input log is not modified; a fresh log with the same answer order is
// returned.
func AddNoise(rng *rand.Rand, schema tabular.Schema, log *tabular.AnswerLog, gamma float64) *tabular.AnswerLog {
	answers := log.All()

	// Per-column answer statistics for the z-transform.
	perCol := make([][]float64, len(schema.Columns))
	for _, a := range answers {
		if a.Value.Kind == tabular.Number {
			perCol[a.Cell.Col] = append(perCol[a.Cell.Col], a.Value.X)
		}
	}
	colMean := make([]float64, len(schema.Columns))
	colStd := make([]float64, len(schema.Columns))
	for j, xs := range perCol {
		if len(xs) > 0 {
			colMean[j] = stats.Mean(xs)
			colStd[j] = stats.Clamp(stats.StdDev(xs), 1e-9, 1e18)
		}
	}

	n := int(float64(len(answers))*gamma + 0.5)
	for k := 0; k < n; k++ {
		idx := rng.Intn(len(answers))
		a := answers[idx]
		col := schema.Columns[a.Cell.Col]
		switch col.Type {
		case tabular.Categorical:
			a.Value = tabular.LabelValue(rng.Intn(len(col.Labels)))
		case tabular.Continuous:
			z := stats.Standardize(a.Value.X, colMean[a.Cell.Col], colStd[a.Cell.Col])
			z += rng.NormFloat64()
			a.Value = tabular.NumberValue(stats.Unstandardize(z, colMean[a.Cell.Col], colStd[a.Cell.Col]))
		}
		answers[idx] = a
	}

	out := tabular.NewAnswerLog()
	out.AddAll(answers)
	return out
}
