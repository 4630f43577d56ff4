package worker

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"dpbyz/internal/data"
	"dpbyz/internal/dp"
	"dpbyz/internal/model"
	"dpbyz/internal/randx"
)

// stepGoldens pins the FNV-64a hash of the bits of every Pipeline.Step
// submission over a short trajectory, per ordering × clip × mechanism ×
// momentum × dimension. The constants were printed by this test at commit
// 9a8de4b (the parent of the bulk noise fill and the folded clip norm) and
// must not be edited by a sampler or pipeline change.
var stepGoldens = map[string]uint64{
	"paper/clip=0.01/gaussian/mu=0.99/d=1000":  0x53df10e4dc7e6414,
	"paper/clip=0.01/gaussian/mu=0.99/d=69":    0xd7464c029f08a473,
	"paper/clip=0.01/gaussian/mu=0/d=1000":     0x6f053cd1bb6d8555,
	"paper/clip=0.01/gaussian/mu=0/d=69":       0xd32498df125b98e4,
	"paper/clip=0.01/laplace/mu=0.99/d=1000":   0x6959a3fb29912424,
	"paper/clip=0.01/laplace/mu=0.99/d=69":     0x3bb7d6141a49533d,
	"paper/clip=0.01/laplace/mu=0/d=1000":      0x07b6027110a0d026,
	"paper/clip=0.01/laplace/mu=0/d=69":        0x9567f4217d91a3a9,
	"paper/clip=0.01/none/mu=0.99/d=1000":      0x6478c2c2056a8ebc,
	"paper/clip=0.01/none/mu=0.99/d=69":        0x50b9fc52d1936a91,
	"paper/clip=0.01/none/mu=0/d=1000":         0x58c0a89ee85fd2c1,
	"paper/clip=0.01/none/mu=0/d=69":           0x084f8586293e6a36,
	"paper/clip=0/gaussian/mu=0.99/d=1000":     0x49524d6045f963d9,
	"paper/clip=0/gaussian/mu=0.99/d=69":       0xf1be107bb8979e2f,
	"paper/clip=0/gaussian/mu=0/d=1000":        0x5ebd77e09d4b5682,
	"paper/clip=0/gaussian/mu=0/d=69":          0x11b293c9eb7ef7fb,
	"paper/clip=0/laplace/mu=0.99/d=1000":      0x674e09a4055e940d,
	"paper/clip=0/laplace/mu=0.99/d=69":        0x1be4a7df7310f306,
	"paper/clip=0/laplace/mu=0/d=1000":         0xfb94633a517fe0f6,
	"paper/clip=0/laplace/mu=0/d=69":           0x54280ca8325c0107,
	"paper/clip=0/none/mu=0.99/d=1000":         0x74adf93f1fd4b251,
	"paper/clip=0/none/mu=0.99/d=69":           0x6cfce77c9548c359,
	"paper/clip=0/none/mu=0/d=1000":            0x986ce266b6693dae,
	"paper/clip=0/none/mu=0/d=69":              0x178f245191ba5547,
	"theory/clip=0.01/gaussian/mu=0.99/d=1000": 0x57377f9e3efee667,
	"theory/clip=0.01/gaussian/mu=0.99/d=69":   0xf3ef4137585ecc4e,
	"theory/clip=0.01/gaussian/mu=0/d=1000":    0x6f053cd1bb6d8555,
	"theory/clip=0.01/gaussian/mu=0/d=69":      0xd32498df125b98e4,
	"theory/clip=0.01/laplace/mu=0.99/d=1000":  0xb0ad8c5662d88d72,
	"theory/clip=0.01/laplace/mu=0.99/d=69":    0xb62930d96404ef3d,
	"theory/clip=0.01/laplace/mu=0/d=1000":     0x07b6027110a0d026,
	"theory/clip=0.01/laplace/mu=0/d=69":       0x9567f4217d91a3a9,
	"theory/clip=0.01/none/mu=0.99/d=1000":     0xac21126177310f8e,
	"theory/clip=0.01/none/mu=0.99/d=69":       0x20b4a76f7b0bd70d,
	"theory/clip=0.01/none/mu=0/d=1000":        0x58c0a89ee85fd2c1,
	"theory/clip=0.01/none/mu=0/d=69":          0x084f8586293e6a36,
	"theory/clip=0/gaussian/mu=0.99/d=1000":    0x258486b2f5fe9800,
	"theory/clip=0/gaussian/mu=0.99/d=69":      0xee2f4fdefa187750,
	"theory/clip=0/gaussian/mu=0/d=1000":       0x5ebd77e09d4b5682,
	"theory/clip=0/gaussian/mu=0/d=69":         0x11b293c9eb7ef7fb,
	"theory/clip=0/laplace/mu=0.99/d=1000":     0x379a9361dbba9091,
	"theory/clip=0/laplace/mu=0.99/d=69":       0x9b70c535d9d0ab7f,
	"theory/clip=0/laplace/mu=0/d=1000":        0xfb94633a517fe0f6,
	"theory/clip=0/laplace/mu=0/d=69":          0x54280ca8325c0107,
	"theory/clip=0/none/mu=0.99/d=1000":        0x74adf93f1fd4b251,
	"theory/clip=0/none/mu=0.99/d=69":          0x6cfce77c9548c359,
	"theory/clip=0/none/mu=0/d=1000":           0x986ce266b6693dae,
	"theory/clip=0/none/mu=0/d=69":             0x178f245191ba5547,
}

// TestStepGoldens is the worker slice of ROADMAP item 1(b): it pins the
// honest step's output bits — batch draw, gradient, clip, noise, momentum —
// in both orderings. amd64-only, like gar.TestPairwiseGoldens: the compiler
// fuses multiply-adds elsewhere, so float results are per-architecture.
// Unlike gar's, these goldens hold within amd64 on CPUs with AVX and FMA
// only: the gradient's sigmoid calls math.Exp, whose amd64 body takes an
// FMA branch there (math/exp_amd64.go, useFMA) and rounds differently
// without it (ROADMAP rule (iv)).
func TestStepGoldens(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens are pinned to GOARCH=amd64 (FMA fusion makes float results per-architecture); running on %s", runtime.GOARCH)
	}
	const (
		batch  = 16
		rounds = 6
		lr     = 0.5
		gmax   = 1e-2 // the noise is calibrated at G_max even when clipping is off
	)
	for _, d := range []int{69, 1000} {
		ds, err := data.SyntheticPhishing(data.SyntheticPhishingConfig{N: 300, Features: d - 1, Seed: uint64(d)})
		if err != nil {
			t.Fatal(err)
		}
		m, err := model.NewLogisticMSE(d - 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, ordering := range []string{"paper", "theory"} {
			for _, clip := range []float64{0, 1e-2} {
				for _, mech := range []string{"none", "gaussian", "laplace"} {
					for _, mu := range []float64{0, 0.99} {
						cfg := Config{
							Model: m, Train: ds, BatchSize: batch, ClipNorm: clip,
							Momentum: mu, MomentumPostNoise: ordering == "theory",
						}
						switch mech {
						case "gaussian":
							cfg.Mechanism, err = dp.NewGaussian(gmax, batch, dp.Budget{Epsilon: 0.2, Delta: 1e-6})
						case "laplace":
							cfg.Mechanism, err = dp.NewLaplaceForGradient(gmax, batch, d, 0.2)
						}
						if err != nil {
							t.Fatal(err)
						}
						p, err := New(cfg, randx.New(uint64(d)*31+5), 2)
						if err != nil {
							t.Fatal(err)
						}
						h := fnv.New64a()
						var b [8]byte
						w := make([]float64, d)
						for r := 0; r < rounds; r++ {
							sub := p.Step(w)
							for j, x := range sub {
								binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
								h.Write(b[:])
								w[j] -= lr * x
							}
						}
						key := fmt.Sprintf("%s/clip=%g/%s/mu=%g/d=%d", ordering, clip, mech, mu, d)
						if got, want := h.Sum64(), stepGoldens[key]; got != want {
							t.Errorf("golden moved:\n\t%q: %#016x, // pinned %#016x", key, got, want)
						}
					}
				}
			}
		}
	}
}
