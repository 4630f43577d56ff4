package gar

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"dpbyz/internal/randx"
	"dpbyz/internal/vecmath"
)

// sortedColumnGoldens pins the FNV-64a hash of the AggregateInto output bits
// of every rule that runs through the sorted-column kernel, at three shapes.
// The constants were printed by this test with the portable goldenCloud on
// the kernels of commit d28893a (the parent of the SSE2 compare-exchange)
// and must not be edited by a kernel change.
var sortedColumnGoldens = map[string]uint64{
	"bulyan/n=16,f=3,d=1000":       0x9c08da5cc73f96e1,
	"bulyan/n=33,f=7,d=517":        0x791859f33ea217ee,
	"bulyan/n=7,f=1,d=130":         0xcd8a3f828b36f055,
	"centeredclip/n=16,f=4,d=1000": 0x620c4b598bf9f7d6,
	"centeredclip/n=33,f=8,d=517":  0x56c539126f5248d5,
	"centeredclip/n=7,f=2,d=130":   0xc95bf45ecbb5aa92,
	"meamed/n=16,f=4,d=1000":       0x773f4ee0667da585,
	"meamed/n=33,f=8,d=517":        0xc53ccdeac11992c4,
	"meamed/n=7,f=2,d=130":         0x0a621c34efb16ead,
	"median/n=16,f=4,d=1000":       0x959d8d28570ab42d,
	"median/n=33,f=8,d=517":        0x7f5526965c042a0e,
	"median/n=7,f=2,d=130":         0xec16d28f67b6089d,
	"phocas/n=16,f=4,d=1000":       0x02c0ffea55be2f62,
	"phocas/n=33,f=8,d=517":        0x6a638d3dad5557e1,
	"phocas/n=7,f=2,d=130":         0xc234e0cf15b05141,
	"trimmedmean/n=16,f=4,d=1000":  0xf8159b0fe8bdd332,
	"trimmedmean/n=33,f=8,d=517":   0xfb845ac7a5c226f3,
	"trimmedmean/n=7,f=2,d=130":    0x3b8e445505b8e09e,
}

// goldenCloud builds the seeded input of one golden entry: a cloud around
// 1 (spread 0.3) whose first f rows are far outliers around −25 (spread 3,
// so they do not tie) and whose last row is an exact duplicate of the row
// before it (ties the sort must not reorder visibly). It draws through
// portableNormal, so the cloud has the same bits on every GOARCH and a
// moved golden points at the code under test.
func goldenCloud(n, f, d int, seed uint64) [][]float64 {
	rng := randx.New(seed)
	grads := make([][]float64, n)
	for i := range grads {
		center, spread := 1.0, 0.3
		if i < f {
			center, spread = -25, 3
		}
		g := make([]float64, d)
		for j := range g {
			g[j] = center + spread*portableNormal(rng)
		}
		grads[i] = g
	}
	copy(grads[n-1], grads[n-2])
	return grads
}

// portableNormal returns a draw of mean 0 and variance 1 from rng's
// uniforms alone: the sum of four Float64s (Irwin–Hall, variance 1/3),
// centred and scaled by √3. rng.Normal's ziggurat tables are computed with
// math.Exp and math.Log, whose last bits differ between GOARCHes; every
// step here is exact or one IEEE 754 rounding.
func portableNormal(rng *randx.Stream) float64 {
	s := rng.Float64() + rng.Float64() + rng.Float64() + rng.Float64()
	return (s - 2) * 1.7320508075688772
}

// hashBits returns the FNV-64a hash of the IEEE-754 bit patterns of xs.
func hashBits(xs []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return h.Sum64()
}

// skipUnlessPinnedArch skips a golden test outside amd64 and 386. Float
// results are per-architecture where the compiler fuses multiply-adds
// (ROADMAP 1(c)); amd64 runs the AVX2 kernels (or, on a CPU without AVX2,
// their Go bodies) and 386 the Go bodies, neither fuses, and on
// goldenCloud's portable input all give the same bits.
func skipUnlessPinnedArch(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "386" {
		t.Skipf("goldens are pinned to GOARCH=amd64 and 386 (FMA fusion makes float results per-architecture); running on %s", runtime.GOARCH)
	}
}

// TestSortedColumnGoldens is the slice of ROADMAP item 4 the tiled
// sorted-column kernel needs (item 4's trajectory goldens should absorb it):
// for median, trimmedmean, meamed, phocas, bulyan and centeredclip —
// every rule that enters vecmath.reduceSortedColumnsRange — it pins the
// output bits on seeded inputs, on the inline path (SetParallelism(1)) and
// on the chunked path (SetParallelism(2) with a grain small enough that the
// chunk boundary splits a tile). The constants hold on amd64 and 386
// (skipUnlessPinnedArch).
func TestSortedColumnGoldens(t *testing.T) {
	skipUnlessPinnedArch(t)
	shapes := []struct{ n, f, d int }{{7, 2, 130}, {16, 4, 1000}, {33, 8, 517}}
	rules := []string{"median", "trimmedmean", "meamed", "phocas", "bulyan", "centeredclip"}
	t.Cleanup(func() {
		vecmath.SetParallelism(0)
		vecmath.SetParallelGrain(0)
	})
	for _, sh := range shapes {
		grads := goldenCloud(sh.n, sh.f, sh.d, uint64(sh.n*1000+sh.d))
		for _, name := range rules {
			f := sh.f
			if name == "bulyan" {
				// Bulyan admits n >= 4f+3 only: run it at the largest f it
				// accepts for this n; the cloud keeps its sh.f outliers.
				f = min(f, (sh.n-3)/4)
			}
			g, err := New(name, sh.n, f)
			if err != nil {
				t.Fatalf("%s n=%d f=%d: %v", name, sh.n, f, err)
			}
			key := fmt.Sprintf("%s/n=%d,f=%d,d=%d", name, sh.n, f, sh.d)
			for _, workers := range []int{1, 2} {
				vecmath.SetParallelism(workers)
				vecmath.SetParallelGrain(32)
				dst := make([]float64, sh.d)
				if err := AggregateInto(g, dst, grads); err != nil {
					t.Fatalf("%s workers=%d: %v", key, workers, err)
				}
				if got, want := hashBits(dst), sortedColumnGoldens[key]; got != want {
					t.Errorf("workers=%d: golden moved:\n\t%q: %#016x, // pinned %#016x", workers, key, got, want)
				}
			}
		}
	}
}

// pairwiseGoldens pins the FNV-64a hash of the AggregateInto output bits of
// the rules whose selection reads the pairwise squared-distance matrix
// (vecmath.PairwiseSqDistsInto), each at the largest f it admits. bulyan —
// the kernel's other consumer — is pinned above. The constants were printed
// like sortedColumnGoldens' and must not be edited by a kernel change.
var pairwiseGoldens = map[string]uint64{
	"krum/n=16,f=6,d=1000":      0x72ae9047129394ea,
	"krum/n=33,f=15,d=517":      0x33dd4f66ec6f6d07,
	"krum/n=7,f=2,d=130":        0xd657c877a3e3f176,
	"mda/n=16,f=7,d=1000":       0x961edb82d025c9ff,
	"mda/n=33,f=16,d=517":       0x953868795e21c691,
	"mda/n=7,f=3,d=130":         0x98d8115e3e5758db,
	"multikrum/n=16,f=6,d=1000": 0xd580ce26dfac8612,
	"multikrum/n=33,f=15,d=517": 0xc874257e5645ea1c,
	"multikrum/n=7,f=2,d=130":   0xba7301838d60e5d0,
}

// TestPairwiseGoldens is the next slice of ROADMAP item 4: krum,
// multikrum and mda, on the clouds of TestSortedColumnGoldens, on the
// inline path and on the row-striped one, on amd64 and 386 alike.
func TestPairwiseGoldens(t *testing.T) {
	skipUnlessPinnedArch(t)
	shapes := []struct{ n, f, d int }{{7, 2, 130}, {16, 4, 1000}, {33, 8, 517}}
	t.Cleanup(func() {
		vecmath.SetParallelism(0)
		vecmath.SetParallelGrain(0)
	})
	for _, sh := range shapes {
		grads := goldenCloud(sh.n, sh.f, sh.d, uint64(sh.n*1000+sh.d))
		for _, name := range []string{"krum", "multikrum", "mda"} {
			// The largest f the rule admits at this n; the cloud keeps its
			// sh.f outliers.
			f := sh.n
			g, err := New(name, sh.n, f)
			for err != nil && f > 0 {
				f--
				g, err = New(name, sh.n, f)
			}
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, sh.n, err)
			}
			key := fmt.Sprintf("%s/n=%d,f=%d,d=%d", name, sh.n, f, sh.d)
			for _, workers := range []int{1, 2} {
				vecmath.SetParallelism(workers)
				vecmath.SetParallelGrain(32)
				dst := make([]float64, sh.d)
				if err := AggregateInto(g, dst, grads); err != nil {
					t.Fatalf("%s workers=%d: %v", key, workers, err)
				}
				if got, want := hashBits(dst), pairwiseGoldens[key]; got != want {
					t.Errorf("workers=%d: golden moved:\n\t%q: %#016x, // pinned %#016x", workers, key, got, want)
				}
			}
		}
	}
}
