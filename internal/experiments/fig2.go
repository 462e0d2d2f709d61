package experiments

import (
	"fmt"
	"io"

	"tcrowd/internal/assign"
	"tcrowd/internal/simulate"
)

// fig2Checkpoints returns the answers-per-task grid of Fig. 2 per dataset.
func fig2Checkpoints(name string, quick bool) []float64 {
	if quick {
		return []float64{2, 3}
	}
	switch name {
	case "Celebrity":
		return []float64{2, 2.5, 3, 3.5, 4, 4.5, 5}
	case "Restaurant":
		return []float64{2, 2.5, 3, 3.5, 4}
	default: // Emotion
		return []float64{2, 4, 6, 8, 10}
	}
}

// Fig2 runs the end-to-end system comparison on one dataset and returns a
// curve per system.
func Fig2(dataset string, cfg Config) ([]assign.SimResult, error) {
	c := cfg.withDefaults()
	ds, err := simulate.StandIn(dataset, c.Seed)
	if err != nil {
		return nil, err
	}
	sim := assign.SimConfig{
		EvalAt:       fig2Checkpoints(dataset, c.Quick),
		Seed:         c.Seed + 2,
		RefreshEvery: 12,
	}
	var out []assign.SimResult
	for _, sys := range assign.Fig2Systems(c.Seed + 3) {
		// Each system replays the identical crowd (same seed), so curves
		// differ only by assignment/inference choices.
		r, err := assign.RunOnline(ds, sys, sim)
		if err != nil {
			return nil, fmt.Errorf("fig2: %s on %s: %w", sys.Name(), dataset, err)
		}
		out = append(out, r)
	}
	return out, nil
}

func runFig2(w io.Writer, cfg Config) error {
	c := cfg.withDefaults()
	datasets := simulate.StandInNames()
	if c.Quick {
		datasets = []string{"Restaurant"}
	}
	for _, d := range datasets {
		results, err := Fig2(d, c)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "-- %s --\n", d)
		fmt.Fprintf(w, "%-10s %8s %12s %12s\n", "System", "Ans/Task", "Error Rate", "MNAD")
		for _, r := range results {
			for _, pt := range r.Curve {
				fmt.Fprintf(w, "%-10s %8.1f %12s %12s\n",
					r.System, pt.AnswersPerTask, fmtMetric(pt.Report.ErrorRate), fmtMetric(pt.Report.MNAD))
			}
		}
	}
	return nil
}
