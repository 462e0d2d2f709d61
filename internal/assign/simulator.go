package assign

import (
	"fmt"

	"tcrowd/internal/metrics"
	"tcrowd/internal/simulate"
)

// SimConfig parameterises the budgeted online simulation that regenerates
// Figs. 2 and 5: workers arrive in a random stream, the system under test
// picks a HIT's worth of cells for each arrival, the simulated crowd
// answers them, and effectiveness is recorded at answers-per-task
// checkpoints.
type SimConfig struct {
	// Batch is the number of tasks per arriving worker (default: the
	// table's column count — one row-sized HIT, matching the AMT setup).
	Batch int
	// RefreshEvery re-runs the system's inference every this many
	// arrivals (default 8; checkpoints always refresh first).
	RefreshEvery int
	// EvalAt lists the answers-per-task checkpoints to record, e.g.
	// {2, 2.5, 3, 3.5, 4, 4.5, 5} for Celebrity.
	EvalAt []float64
	// Seed drives the crowd and arrival randomness.
	Seed int64
}

func (c SimConfig) withDefaults(ds *simulate.Dataset) SimConfig {
	if c.Batch <= 0 {
		c.Batch = ds.Table.NumCols()
	}
	if c.RefreshEvery <= 0 {
		c.RefreshEvery = 8
	}
	if len(c.EvalAt) == 0 {
		c.EvalAt = []float64{2, 3, 4, 5}
	}
	return c
}

// SimResult is one system's convergence curve.
type SimResult struct {
	System string
	Curve  []metrics.CurvePoint
	// TotalAnswers is the number of answers actually collected.
	TotalAnswers int
}

// RunOnline replays the online crowdsourcing protocol for one system and
// returns its Error Rate / MNAD curve over answers-per-task.
func RunOnline(ds *simulate.Dataset, sys System, cfg SimConfig) (SimResult, error) {
	c := cfg.withDefaults(ds)
	crowd := simulate.NewCrowd(ds, c.Seed)
	tbl := ds.Table
	numCells := float64(tbl.NumCells())
	// budget is the total number of answers to collect, seeding included:
	// EvalAt's last checkpoint times #cells.
	budget := int(c.EvalAt[len(c.EvalAt)-1]*numCells + 0.5)

	// Seeding phase (Algorithm 2 line 1): every task gets one answer, via
	// the same row-HIT structure the AMT collection used.
	log := crowd.FixedAssignment(1)
	if err := sys.Refresh(tbl, log); err != nil {
		return SimResult{}, fmt.Errorf("assign: initial refresh: %w", err)
	}

	res := SimResult{System: sys.Name()}
	evalIdx := 0
	record := func() error {
		apt := float64(log.Len()) / numCells
		for evalIdx < len(c.EvalAt) && apt >= c.EvalAt[evalIdx]-1e-9 {
			if err := sys.Refresh(tbl, log); err != nil {
				return err
			}
			est := sys.Estimates()
			rep := metrics.Evaluate(tbl, est, log)
			res.Curve = append(res.Curve, metrics.CurvePoint{
				AnswersPerTask: c.EvalAt[evalIdx],
				Report:         rep,
			})
			evalIdx++
		}
		return nil
	}
	if err := record(); err != nil {
		return SimResult{}, err
	}

	// Worst case every arrival answers one cell.
	arrivals := crowd.ArrivalOrder(budget + 1)
	sinceRefresh := 0
	for _, widx := range arrivals {
		if log.Len() >= budget || evalIdx >= len(c.EvalAt) {
			break
		}
		w := &ds.Workers[widx]
		cells := sys.Select(w.ID, c.Batch, log)
		if len(cells) == 0 {
			// This worker has nothing left to answer; move on.
			continue
		}
		for _, cell := range cells {
			if log.Len() >= budget {
				break
			}
			log.Add(crowd.Answer(w, cell))
		}
		sinceRefresh++
		if sinceRefresh >= c.RefreshEvery {
			if err := sys.Refresh(tbl, log); err != nil {
				return SimResult{}, err
			}
			sinceRefresh = 0
		}
		if err := record(); err != nil {
			return SimResult{}, err
		}
	}
	res.TotalAnswers = log.Len()
	return res, nil
}

// RunPolicyComparison runs the Fig. 5 heuristics (all with T-Crowd
// inference) on one dataset and returns one curve per policy.
func RunPolicyComparison(ds *simulate.Dataset, policies []Policy, cfg SimConfig) ([]SimResult, error) {
	out := make([]SimResult, 0, len(policies))
	for _, p := range policies {
		sys := NewTCrowdSystem(cfg.Seed)
		sys.Policy = p
		r, err := RunOnline(ds, sys, cfg)
		if err != nil {
			return nil, fmt.Errorf("assign: policy %s: %w", p.Name(), err)
		}
		r.System = p.Name()
		out = append(out, r)
	}
	return out, nil
}
