package experiments

import (
	"fmt"
	"io"
	"time"

	"tcrowd/internal/assign"
	"tcrowd/internal/core"
	"tcrowd/internal/simulate"
	"tcrowd/internal/stats"
)

// Fig11Point measures assignment latency at one answers-per-task level.
type Fig11Point struct {
	AnswersPerTask float64
	// SecondsPerAssignment is the wall time of one structure-aware
	// selection over all candidate cells (scored serially).
	SecondsPerAssignment float64
}

// Fig11 measures the cost of computing structure-aware information gain
// for all candidate tasks when a worker arrives, as the answer set grows.
func Fig11(cfg Config) ([]Fig11Point, error) {
	c := cfg.withDefaults()
	levels := []int{2, 3, 4, 5}
	reps := 5
	if c.Quick {
		levels = []int{2, 3}
		reps = 2
	}
	ds, err := simulate.StandIn("Celebrity", c.Seed)
	if err != nil {
		return nil, err
	}
	var out []Fig11Point
	for _, lvl := range levels {
		crowd := simulate.NewCrowd(ds, c.Seed+int64(lvl))
		log := crowd.FixedAssignment(lvl)
		sys := assign.NewTCrowdSystem(c.Seed)
		sys.Opts = core.Options{MaxIter: 8}
		if err := sys.Refresh(ds.Table, log); err != nil {
			return nil, err
		}
		var total time.Duration
		for r := 0; r < reps; r++ {
			u := ds.Workers[r%len(ds.Workers)].ID
			start := time.Now()
			sys.Select(u, ds.Table.NumCols(), log)
			total += time.Since(start)
		}
		out = append(out, Fig11Point{
			AnswersPerTask:       float64(lvl),
			SecondsPerAssignment: total.Seconds() / float64(reps),
		})
	}
	return out, nil
}

func runFig11(w io.Writer, cfg Config) error {
	pts, err := Fig11(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-14s %22s\n", "Ans/Task", "Seconds/Assignment")
	for _, pt := range pts {
		fmt.Fprintf(w, "%-14.1f %22.4f\n", pt.AnswersPerTask, pt.SecondsPerAssignment)
	}
	return nil
}

// Fig12Result carries both efficiency measurements of Fig. 12.
type Fig12Result struct {
	// Objective is the EM objective per iteration on Celebrity (12a).
	Objective []float64
	// Runtime maps answer-set sizes to inference wall time (12b).
	Runtime []Fig12RuntimePoint
}

// Fig12RuntimePoint is one (answers, seconds) measurement.
type Fig12RuntimePoint struct {
	Answers int
	Seconds float64
	// AnswersPerSecond is the derived throughput.
	AnswersPerSecond float64
}

// Fig12 traces the EM objective (12a) and measures inference runtime as a
// function of the number of answers (12b); the paper reports near-linear
// scaling.
func Fig12(cfg Config) (Fig12Result, error) {
	c := cfg.withDefaults()
	var res Fig12Result

	ds, log, err := fixedLog("Celebrity", c.Seed, 0)
	if err != nil {
		return res, err
	}
	m, err := core.Infer(ds.Table, log, core.Options{TrackObjective: true, MaxIter: 20})
	if err != nil {
		return res, err
	}
	res.Objective = m.ObjTrace

	sizes := []int{1000, 5000, 20000, 100000}
	if c.Quick {
		sizes = []int{1000, 5000}
	}
	for _, target := range sizes {
		// Scale the table so 5 answers/task yields ~target answers.
		cells := target / 5
		rows := cells / 10
		if rows < 5 {
			rows = 5
		}
		sds := simulate.Generate(stats.NewRNG(c.Seed+int64(target)), simulate.TableConfig{
			Rows: rows, Cols: 10, CatRatio: 0.5,
			Population: simulate.PopulationConfig{N: 100},
		})
		slog := simulate.NewCrowd(sds, c.Seed+int64(target)+1).FixedAssignment(5)
		start := time.Now()
		// Fixed iteration count isolates per-answer cost from convergence
		// variation.
		if _, err := core.Infer(sds.Table, slog, core.Options{MaxIter: 10, Tol: 1e-12}); err != nil {
			return res, err
		}
		secs := time.Since(start).Seconds()
		res.Runtime = append(res.Runtime, Fig12RuntimePoint{
			Answers:          slog.Len(),
			Seconds:          secs,
			AnswersPerSecond: float64(slog.Len()) / secs,
		})
	}
	return res, nil
}

func runFig12(w io.Writer, cfg Config) error {
	res, err := Fig12(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "(a) EM objective per iteration (Celebrity):")
	for i, obj := range res.Objective {
		fmt.Fprintf(w, "  iter %2d: %.2f\n", i+1, obj)
	}
	fmt.Fprintln(w, "(b) inference runtime vs number of answers:")
	fmt.Fprintf(w, "%-10s %12s %14s\n", "Answers", "Seconds", "Answers/sec")
	for _, pt := range res.Runtime {
		fmt.Fprintf(w, "%-10d %12.3f %14.0f\n", pt.Answers, pt.Seconds, pt.AnswersPerSecond)
	}
	return nil
}
