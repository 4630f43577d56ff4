package spec

import (
	"context"
	"math"
	"slices"
	"testing"

	"dpbyz/internal/data"
	"dpbyz/internal/gar"
	"dpbyz/internal/model"
	"dpbyz/internal/randx"
	"dpbyz/internal/vecmath"
)

// TestFanOutWidthInvariant is the one determinism table for every
// in-process fan-out site: the simulator's gradient sweep (plain, under
// staleness, with worker momentum), the coalition's shadow sweep on an
// attacked ClusterBackend run, the evaluation scan, each coordinate-wise
// kernel and the pairwise kernel. With the grain at one element operation
// every site splits whenever it has two items, so at worker caps 1, 2 and 4
// each one runs inline, in halves and in quarters; the outputs must be the
// same bits.
func TestFanOutWidthInvariant(t *testing.T) {
	vecmath.SetParallelGrain(1)
	t.Cleanup(func() {
		vecmath.SetParallelism(0)
		vecmath.SetParallelGrain(0)
	})
	ctx := context.Background()
	specs := trajectorySpecs()
	momentum := specs["plain"]
	momentum.Attack = &AttackSpec{Name: "foe"}
	momentum.Momentum, momentum.WorkerMomentum = 0, 0.9
	run := func(b Backend, s Spec) func(*testing.T) []float64 {
		return func(t *testing.T) []float64 {
			res, err := b.Run(ctx, s)
			if err != nil {
				t.Fatal(err)
			}
			return res.Params
		}
	}
	type site struct {
		name string
		run  func(*testing.T) []float64
	}
	sites := []site{
		{"local-plain", run(&LocalBackend{}, specs["plain"])},
		{"local-staleness", run(&LocalBackend{}, specs["quorum+credit"])},
		{"local-momentum", run(&LocalBackend{}, momentum)},
		{"cluster-attacked", run(&ClusterBackend{}, specs["plain"])},
		{"eval", evalSite},
		// Krum's distance matrix is pooled scratch, which the inline run
		// leaves holding the right values; a fresh matrix shows every row.
		{"pairwise", pairwiseSite},
	}
	for _, rule := range []string{"average", "median", "trimmedmean", "meamed", "phocas", "krum"} {
		sites = append(sites, site{"gar-" + rule, garSite(rule)})
	}
	for _, st := range sites {
		t.Run(st.name, func(t *testing.T) {
			var want []float64
			for _, workers := range []int{1, 2, 4} {
				vecmath.SetParallelism(workers)
				got := st.run(t)
				if want == nil {
					want = got
					continue
				}
				if len(got) != len(want) {
					t.Fatalf("workers=%d: %d outputs, want %d", workers, len(got), len(want))
				}
				for j := range want {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
						t.Fatalf("workers=%d: output %d is %v, %v inline", workers, j, got[j], want[j])
					}
				}
			}
		})
	}
}

// evalSite is the evaluation scan: accuracy and loss over a set of four
// evaluation chunks.
func evalSite(t *testing.T) []float64 {
	ds, err := data.SyntheticPhishing(data.SyntheticPhishingConfig{N: 3*1024 + 137, Features: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.NewLogisticMSE(6)
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, m.Dim())
	randx.New(41).NormalVec(w, 1)
	return []float64{model.Accuracy(m, w, ds), model.DatasetLoss(m, w, ds)}
}

// pairwiseSite is the squared-distance matrix of one fixed batch, into a
// freshly allocated matrix.
func pairwiseSite(t *testing.T) []float64 {
	grads := fanOutGrads()
	m := make([][]float64, len(grads))
	for i := range m {
		m[i] = make([]float64, len(grads))
	}
	if err := vecmath.PairwiseSqDistsInto(m, grads); err != nil {
		t.Fatal(err)
	}
	return slices.Concat(m...)
}

// fanOutGrads is one fixed batch of 11 submissions of dimension 257.
func fanOutGrads() [][]float64 {
	rng := randx.New(9)
	grads := make([][]float64, 11)
	for i := range grads {
		grads[i] = make([]float64, 257)
		rng.NormalVec(grads[i], 1)
	}
	return grads
}

// garSite aggregates one fixed batch of submissions with the named rule.
func garSite(rule string) func(*testing.T) []float64 {
	return func(t *testing.T) []float64 {
		grads := fanOutGrads()
		g, err := gar.New(rule, len(grads), 2)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]float64, len(grads[0]))
		if err := gar.AggregateInto(g, dst, grads); err != nil {
			t.Fatal(err)
		}
		return dst
	}
}
