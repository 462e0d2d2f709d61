package tcrowd

// Benchmarks regenerating each of the paper's evaluation artifacts (one
// bench per table/figure — see internal/experiments for the index) plus the
// ablation benches for the documented design choices and
// micro-benchmarks of the hot paths.
//
// Run with: go test -bench=. -benchmem
// The experiment benches execute shrunken (Quick) workloads so a full
// -bench=. sweep stays in minutes; use cmd/tcrowd-bench for paper-scale
// runs.

import (
	"testing"

	"tcrowd/internal/assign"
	"tcrowd/internal/baselines"
	"tcrowd/internal/core"
	"tcrowd/internal/experiments"
	"tcrowd/internal/metrics"
	"tcrowd/internal/simulate"
	"tcrowd/internal/stats"
	"tcrowd/internal/tabular"
)

var benchCfg = experiments.Config{Seed: 17, Quick: true, Trials: 1}

func BenchmarkTable6_Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range simulate.StandInNames() {
			if _, err := simulate.StandIn(name, 17); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkTable7_TruthInference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table7(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2_EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2("Restaurant", benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3_QualityHeatmap(b *testing.B) {
	ds, _ := simulate.StandIn("Restaurant", 17)
	log := simulate.NewCrowd(ds, 18).FixedAssignment(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.WorkerAttributeError(ds.Table, log)
	}
}

func BenchmarkFigure4_Calibration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5_Heuristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6_Correlation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7_Columns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8_Ratio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9_Difficulty(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure10_Noise(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure11_AssignTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig11(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure12_InferTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (documented design choices) ---

// benchWorkload builds a mid-size mixed table shared by the ablations.
func benchWorkload(b *testing.B) (*simulate.Dataset, *tabular.AnswerLog) {
	b.Helper()
	ds := simulate.Generate(stats.NewRNG(19), simulate.TableConfig{
		Rows: 60, Cols: 8, CatRatio: 0.5,
		Population: simulate.PopulationConfig{N: 40},
	})
	return ds, simulate.NewCrowd(ds, 20).FixedAssignment(5)
}

func BenchmarkAblation_Unified(b *testing.B) {
	ds, log := benchWorkload(b)
	for _, m := range []baselines.Method{baselines.TCrowd{}, baselines.TCOnlyCate{}, baselines.TCOnlyCont{}} {
		b.Run(m.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := m.Infer(ds.Table, log); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblation_Difficulty(b *testing.B) {
	ds, log := benchWorkload(b)
	for _, fix := range []struct {
		name string
		v    bool
	}{{"learned", false}, {"frozen", true}} {
		b.Run(fix.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Infer(ds.Table, log, core.Options{FixDifficulty: fix.v}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblation_StructureAware(b *testing.B) {
	ds, log := benchWorkload(b)
	m, err := core.Infer(ds.Table, log, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	st := assign.NewState(m, log.Prefix(), m.Estimates(), true)
	st.Log, st.RNG = log, stats.NewRNG(21)
	u := m.WorkerIDs[0]
	b.Run("inherent", func(b *testing.B) {
		p := assign.InherentIG{Parallelism: 1}
		for i := 0; i < b.N; i++ {
			p.Select(st, u, 8)
		}
	})
	b.Run("structure-aware", func(b *testing.B) {
		p := assign.StructureIG{}
		for i := 0; i < b.N; i++ {
			p.Select(st, u, 8)
		}
	})
}

func BenchmarkAblation_Gradients(b *testing.B) {
	ds, log := benchWorkload(b)
	for _, iters := range []int{2, 10, 40} {
		b.Run(map[int]string{2: "mstep-2", 10: "mstep-10", 40: "mstep-40"}[iters], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Infer(ds.Table, log, core.Options{MStepIter: iters}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblation_Batch(b *testing.B) {
	ds, log := benchWorkload(b)
	sys := assign.NewTCrowdSystem(22)
	if err := sys.Refresh(ds.Table, log); err != nil {
		b.Fatal(err)
	}
	u := ds.Workers[0].ID
	for _, k := range []int{1, 8} {
		b.Run(map[int]string{1: "K-1", 8: "K-8"}[k], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys.Select(u, k, log)
			}
		})
	}
}

// --- Micro benches on the hot paths ---

func BenchmarkInfer(b *testing.B) {
	for _, size := range []struct {
		name string
		rows int
	}{{"1k-answers", 20}, {"10k-answers", 200}} {
		ds := simulate.Generate(stats.NewRNG(23), simulate.TableConfig{
			Rows: size.rows, Cols: 10, CatRatio: 0.5,
			Population: simulate.PopulationConfig{N: 50},
		})
		log := simulate.NewCrowd(ds, 24).FixedAssignment(5)
		b.Run(size.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Infer(ds.Table, log, core.Options{MaxIter: 10, Tol: 1e-12}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRefreshWarmVsCold measures a refresh after an answer batch
// lands on an already-fitted system: "cold" re-runs full EM from scratch
// on the grown log, "warm" is TCrowdSystem's warm rebuild (core.InferWarm
// seeded from the previous model, which is why it converges within its
// short iteration budget). TCrowdSystem rebuilds only for a log its model
// was not fitted on — on its own grown log it streams instead
// (BenchmarkRefreshIncremental) — so every timed iteration sees a fresh
// 50-answer batch on top of a clone of the base log, made with the timer
// stopped, and neither arm degenerates into refreshing an unchanged log.
func BenchmarkRefreshWarmVsCold(b *testing.B) {
	ds := simulate.Generate(stats.NewRNG(23), simulate.TableConfig{
		Rows: 100, Cols: 10, CatRatio: 0.5,
		Population: simulate.PopulationConfig{N: 50},
	})
	base := simulate.NewCrowd(ds, 24).FixedAssignment(5)
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			log := base.Clone()
			simulate.NewCrowd(ds, 26+int64(i)).AppendBatch(log, 50)
			b.StartTimer()
			if _, err := core.Infer(ds.Table, log, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		sys := assign.NewTCrowdSystem(25)
		if err := sys.Refresh(ds.Table, base); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			log := base.Clone()
			simulate.NewCrowd(ds, 26+int64(i)).AppendBatch(log, 50)
			b.StartTimer()
			if err := sys.Refresh(ds.Table, log); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRefreshIncremental measures the streaming refresh path (the
// cmd/tcrowd-bench ingest/* series): batches append to the SAME log object
// (untimed) and Refresh takes the incremental route — suffix ingestion into
// the fitted model's CSR store plus a short warm polish — so the timed cost
// scales with the batch, not with re-decoding the log. Compare against
// BenchmarkRefreshWarmVsCold/warm, which rebuilds the model per refresh.
func BenchmarkRefreshIncremental(b *testing.B) {
	ds := simulate.Generate(stats.NewRNG(23), simulate.TableConfig{
		Rows: 100, Cols: 10, CatRatio: 0.5,
		Population: simulate.PopulationConfig{N: 50},
	})
	base := simulate.NewCrowd(ds, 24).FixedAssignment(5)
	for _, batch := range []int{10, 50, 200} {
		b.Run(map[int]string{10: "batch-10", 50: "batch-50", 200: "batch-200"}[batch], func(b *testing.B) {
			crowd := simulate.NewCrowd(ds, 27)
			log := base.Clone()
			sys := assign.NewTCrowdSystem(25)
			if err := sys.Refresh(ds.Table, log); err != nil {
				b.Fatal(err)
			}
			grown := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if grown > 2000 {
					log = base.Clone()
					sys = assign.NewTCrowdSystem(25)
					if err := sys.Refresh(ds.Table, log); err != nil {
						b.Fatal(err)
					}
					grown = 0
				}
				crowd.AppendBatch(log, batch)
				grown += batch
				b.StartTimer()
				if err := sys.Refresh(ds.Table, log); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkInfoGainScoring(b *testing.B) {
	ds, log := benchWorkload(b)
	m, err := core.Infer(ds.Table, log, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	u := m.WorkerIDs[0]
	cells := ds.Table.Cells()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cells {
			assign.InfoGain(m, u, c)
		}
	}
}

func BenchmarkAnswerLogAdd(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		log := tabular.NewAnswerLog()
		for k := 0; k < 1000; k++ {
			log.Add(tabular.Answer{
				Worker: tabular.WorkerID(rune('a' + k%26)),
				Cell:   tabular.Cell{Row: k % 50, Col: k % 7},
				Value:  tabular.NumberValue(float64(k)),
			})
		}
	}
}
