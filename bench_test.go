// Benchmark harness: one testing.B benchmark per paper artifact (Figures
// 2–4, Table 1 / Propositions 1–3, Theorem 1, the full version's ε sweep)
// plus the ablation benches DESIGN.md §4 calls out. Figure benches run the
// full experiment pipeline at a reduced scale per iteration and report the
// headline quantity of the corresponding artifact through b.ReportMetric,
// so `go test -bench .` regenerates the paper's qualitative results.
package dpbyz_test

import (
	"context"
	"testing"

	"dpbyz"
	"dpbyz/internal/attack"
	"dpbyz/internal/dp"
	"dpbyz/internal/experiments"
	"dpbyz/internal/gar"
	"dpbyz/internal/randx"
	"dpbyz/internal/simulate"
	"dpbyz/internal/vecmath"
)

// benchScale keeps a full figure grid affordable per benchmark iteration.
func benchScale() experiments.Scale {
	return experiments.Scale{Steps: 100, Seeds: 2, DatasetSize: 1500, Features: 20}
}

// runFigureBench executes the figure grid and reports the loss of the
// combined DP+attack cell relative to the clean baseline — the paper's
// headline "do they add up" number for that batch size.
func runFigureBench(b *testing.B, sw experiments.Sweep) {
	b.Helper()
	var lastRatio float64
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Run(context.Background(), sw, experiments.Sched{})
		if err != nil {
			b.Fatal(err)
		}
		base := experiments.Cell(cells, "none+clear")
		combined := experiments.Cell(cells, "alie+dp")
		if base == nil || combined == nil {
			b.Fatal("missing cells")
		}
		lastRatio = combined.MinLossMean / base.MinLossMean
	}
	b.ReportMetric(lastRatio, "lossRatio(alie+dp)/clean")
}

func BenchmarkFigure2(b *testing.B) { runFigureBench(b, experiments.Figure2(benchScale())) }

func BenchmarkFigure3(b *testing.B) { runFigureBench(b, experiments.Figure3(benchScale())) }

func BenchmarkFigure4(b *testing.B) {
	// Fig. 4's b = 500 exceeds the reduced dataset's worker batches; keep
	// the paper's proportions by scaling the dataset up alongside.
	s := benchScale()
	s.DatasetSize = 4000
	runFigureBench(b, experiments.Figure4(s))
}

func BenchmarkTable1VNConditions(b *testing.B) {
	var satisfied int
	for i := 0; i < b.N; i++ {
		tables, err := experiments.RunTable1()
		if err != nil {
			b.Fatal(err)
		}
		satisfied = 0
		for _, t := range tables {
			for _, row := range t.Rows {
				if row[len(row)-1].(bool) {
					satisfied++
				}
			}
		}
	}
	b.ReportMetric(float64(satisfied), "conditions-satisfied")
}

func BenchmarkProposition1MDA(b *testing.B) {
	budget := dpbyz.Budget{Epsilon: 0.2, Delta: 1e-6}
	c, err := gar.PrivacyConstant(budget)
	if err != nil {
		b.Fatal(err)
	}
	var frac float64
	for i := 0; i < b.N; i++ {
		for _, d := range []int{69, 1000, 100_000, 25_600_000} {
			frac, err = dpbyz.MaxByzFracMDA(128, d, c)
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(frac, "maxByzFrac@ResNet50")
}

func BenchmarkTheorem1ErrorRate(b *testing.B) {
	spec := experiments.Theorem1Spec{
		Dims: []int{8, 128}, Steps: 120, Seeds: 1, DatasetSize: 1200,
	}
	var dimScaling float64
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunTheorem1(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		// Column 1 is err-dp.
		dimScaling = t.Rows[1][1].(float64) / t.Rows[0][1].(float64)
	}
	// Theorem 1 predicts ≈ 16 for a 16× dimension increase.
	b.ReportMetric(dimScaling, "errDP(d=128)/errDP(d=8)")
}

func BenchmarkEpsilonSweep(b *testing.B) {
	// The ε = 0.1 and ε = 0.5 rows.
	sw := experiments.EpsilonSweep(benchScale())
	sw.Rows = []experiments.Row{sw.Rows[0], sw.Rows[2]}
	var degradation float64
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Run(context.Background(), sw, experiments.Sched{})
		if err != nil {
			b.Fatal(err)
		}
		degradation = cells[0].MinLossMean / cells[1].MinLossMean
	}
	b.ReportMetric(degradation, "loss(eps=0.1)/loss(eps=0.5)")
}

// benchGradients builds a reproducible gradient matrix for GAR throughput
// benches: n vectors of dimension d, f of them hostile.
func benchGradients(n, f, d int) [][]float64 {
	rng := randx.New(42)
	grads := make([][]float64, n)
	for i := range grads {
		g := rng.NormalVec(make([]float64, d), 0.1)
		for j := range g {
			g[j] += 1
		}
		if i < f {
			for j := range g {
				g[j] = -5
			}
		}
		grads[i] = g
	}
	return grads
}

func BenchmarkGAR(b *testing.B) {
	const n, f, d = 23, 5, 1000
	grads := benchGradients(n, f, d)
	for _, name := range dpbyz.GARNames() {
		g, err := dpbyz.NewGAR(name, n, f)
		if err != nil {
			continue
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := g.Aggregate(grads); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGARInto measures the pooled allocation-free aggregation path the
// training loops use. Run with -benchmem: every rule must report 0 allocs/op
// on the steady state. The engine is pinned to the sequential path, which is
// the configuration the zero-alloc guarantee covers — with goroutine
// fan-out enabled, the dispatch itself costs a few small allocations (the
// distance rules' pairs×d work crosses the grain even at moderate d).
func BenchmarkGARInto(b *testing.B) {
	const n, f, d = 23, 5, 1000
	vecmath.SetParallelism(1)
	defer vecmath.SetParallelism(0)
	grads := benchGradients(n, f, d)
	dst := make([]float64, d)
	for _, name := range dpbyz.GARNames() {
		g, err := dpbyz.NewGAR(name, n, f)
		if err != nil {
			continue
		}
		// Warm the scratch pools outside the timed region.
		if err := gar.AggregateInto(g, dst, grads); err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := gar.AggregateInto(g, dst, grads); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGARParallelSpeedup compares the sequential and fanned-out
// aggregation engine at d = 10⁵, where n·d = 2.3M is far past the fan-out
// grain. "seq" pins the worker cap to one goroutine through the
// vecmath.SetParallelism test seam; "par" keeps the default cap
// (GOMAXPROCS), so the kernels split exactly as a training run's would. On a
// multi-core runner "par" is the faster; on a single core they coincide.
func BenchmarkGARParallelSpeedup(b *testing.B) {
	const n, f, d = 23, 5, 100_000
	grads := benchGradients(n, f, d)
	dst := make([]float64, d)
	rules := []string{"median", "trimmedmean", "meamed", "phocas", "krum", "mda"}
	for _, name := range rules {
		g, err := dpbyz.NewGAR(name, n, f)
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []string{"seq", "par"} {
			b.Run(name+"/"+mode, func(b *testing.B) {
				if mode == "seq" {
					vecmath.SetParallelism(1)
				} else {
					vecmath.SetParallelism(0) // default: GOMAXPROCS
				}
				defer vecmath.SetParallelism(0)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := gar.AggregateInto(g, dst, grads); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// Ablation: exact branch-and-bound MDA subset search vs the greedy
// nearest-neighbourhood heuristic (DESIGN.md §4).
func BenchmarkMDAExactVsGreedy(b *testing.B) {
	const n, f, d = 17, 5, 500
	grads := benchGradients(n, f, d)
	mda, err := gar.NewMDA(n, f)
	if err != nil {
		b.Fatal(err)
	}
	greedy, err := gar.NewMDA(n, f)
	if err != nil {
		b.Fatal(err)
	}
	greedy.MaxEnumerate = 1 // C(n, n−f) > 1: always the greedy heuristic
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mda.Aggregate(grads); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := greedy.Aggregate(grads); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchTrainConfig is a small attacked MDA training run shared by the
// ablation benches.
func benchTrainConfig(b *testing.B) simulate.Config {
	b.Helper()
	ds, err := dpbyz.SyntheticPhishing(dpbyz.SyntheticPhishingConfig{
		N: 1000, Features: 15, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	train, test, err := ds.Split(800, dpbyz.NewStream(1))
	if err != nil {
		b.Fatal(err)
	}
	m, err := dpbyz.NewLogisticMSE(15)
	if err != nil {
		b.Fatal(err)
	}
	g, err := dpbyz.NewGAR("mda", 11, 5)
	if err != nil {
		b.Fatal(err)
	}
	atk, err := dpbyz.NewAttack("alie")
	if err != nil {
		b.Fatal(err)
	}
	return simulate.Config{
		Model:        m,
		Train:        train,
		Test:         test,
		GAR:          g,
		Attack:       atk,
		Steps:        100,
		BatchSize:    25,
		LearningRate: 2,
		ClipNorm:     0.01,
		Seed:         1,
	}
}

// Ablation: momentum placement (none / server / worker) under attack.
func BenchmarkMomentumAblation(b *testing.B) {
	for _, style := range []struct {
		name           string
		server, worker float64
	}{
		{name: "none"},
		{name: "server", server: 0.99},
		{name: "worker", worker: 0.99},
	} {
		b.Run(style.name, func(b *testing.B) {
			var minLoss float64
			for i := 0; i < b.N; i++ {
				cfg := benchTrainConfig(b)
				cfg.Momentum = style.server
				cfg.WorkerMomentum = style.worker
				res, err := simulate.Run(context.Background(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				minLoss, _ = res.History.MinLoss()
			}
			b.ReportMetric(minLoss, "min-loss")
		})
	}
}

// Ablation: Gaussian vs Laplace noise at equal ε (Remark 3).
func BenchmarkMechanismAblation(b *testing.B) {
	for _, mech := range []string{"gaussian", "laplace"} {
		b.Run(mech, func(b *testing.B) {
			var minLoss float64
			for i := 0; i < b.N; i++ {
				cfg := benchTrainConfig(b)
				cfg.WorkerMomentum = 0.99
				var err error
				if mech == "gaussian" {
					cfg.Mechanism, err = dpbyz.NewGaussianMechanism(
						cfg.ClipNorm, cfg.BatchSize, dpbyz.Budget{Epsilon: 0.2, Delta: 1e-6})
				} else {
					cfg.Mechanism, err = dpbyz.NewLaplaceMechanismForGradient(
						cfg.ClipNorm, cfg.BatchSize, cfg.Model.Dim(), 0.2)
				}
				if err != nil {
					b.Fatal(err)
				}
				res, err := simulate.Run(context.Background(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				minLoss, _ = res.History.MinLoss()
			}
			b.ReportMetric(minLoss, "min-loss")
		})
	}
}

// Micro-benches of the hot paths underpinning every experiment.
func BenchmarkGaussianPerturb(b *testing.B) {
	mech, err := dp.NewGaussianWithSigma(0.01)
	if err != nil {
		b.Fatal(err)
	}
	rng := randx.New(1)
	v := make([]float64, 10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mech.Perturb(v, rng)
	}
}

func BenchmarkSimulatedStep(b *testing.B) {
	// One full simulated step (11 workers, b=50, d=69, MDA, ALIE, DP):
	// the paper's Fig. 2 per-step cost in this implementation.
	cfg := benchTrainConfig(b)
	cfg.Steps = 1
	mech, err := dpbyz.NewGaussianMechanism(cfg.ClipNorm, cfg.BatchSize,
		dpbyz.Budget{Epsilon: 0.2, Delta: 1e-6})
	if err != nil {
		b.Fatal(err)
	}
	cfg.Mechanism = mech
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simulate.Run(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Guard: the attack registry must stay cheap (constructed every round in
// long sweeps).
func BenchmarkAttackCraft(b *testing.B) {
	honest := benchGradients(11, 0, 69)
	rng := randx.New(1)
	for _, name := range []string{"alie", "foe"} {
		atk, err := attack.New(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := atk.Craft(honest, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Extension-experiment benches (DESIGN.md §3 VN-EMP / XOVER / MLP rows).

func BenchmarkVNEmpirical(b *testing.B) {
	var lastRatio float64
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunVNEmpirical(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		// Column 2 is vn-dp.
		lastRatio = t.Rows[len(t.Rows)-1][2].(float64)
	}
	b.ReportMetric(lastRatio, "vn-dp@b=2000")
}

func BenchmarkCrossover(b *testing.B) {
	// The grid's b = 10 rows, and its b = 500 rows moved to b = 400.
	sw := experiments.CrossoverSweep(experiments.Scale{Steps: 120, Seeds: 1, DatasetSize: 1500, Features: 12})
	sw.Rows = append(sw.Rows[:4:4], sw.Rows[len(sw.Rows)-4:]...)
	for i := 4; i < 8; i++ {
		sw.Rows[i].Spec.BatchSize = 400
		sw.Rows[i].Keys = []string{"b=400", sw.Rows[i].Keys[1]}
	}
	var gap float64
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Run(context.Background(), sw, experiments.Sched{})
		if err != nil {
			b.Fatal(err)
		}
		res, err := experiments.Crossover(sw, cells)
		if err != nil {
			b.Fatal(err)
		}
		last := res.Points[len(res.Points)-1]
		gap = last.BaselineAcc - last.CombinedAcc
	}
	b.ReportMetric(gap, "acc-gap@b=400")
}

func BenchmarkFigureMLP(b *testing.B) {
	sw := experiments.FigureMLP(experiments.Scale{
		Steps: 80, Seeds: 1, DatasetSize: 1000, Features: 10,
	})
	var ratio float64
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Run(context.Background(), sw, experiments.Sched{})
		if err != nil {
			b.Fatal(err)
		}
		ratio = experiments.Cell(cells, "foe+dp").MinLossMean / experiments.Cell(cells, "none+clear").MinLossMean
	}
	b.ReportMetric(ratio, "lossRatio(foe+dp)/clean")
}
