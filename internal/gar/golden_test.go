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
// The constants were printed by this test at commit 28d2c2f (the parent of
// the tiled kernel) and must not be edited by a kernel change.
var sortedColumnGoldens = map[string]uint64{
	"bulyan/n=16,f=3,d=1000":       0x4da5a380c3a7995c,
	"bulyan/n=33,f=7,d=517":        0x58ffba1699e37510,
	"bulyan/n=7,f=1,d=130":         0x0f464f0f5ff11b35,
	"centeredclip/n=16,f=4,d=1000": 0x1b5f78620671953c,
	"centeredclip/n=33,f=8,d=517":  0xeff11f2bd84d85b1,
	"centeredclip/n=7,f=2,d=130":   0x0c5a6422d036a0ac,
	"meamed/n=16,f=4,d=1000":       0x22f0786bacf433a6,
	"meamed/n=33,f=8,d=517":        0x514717701894b8b5,
	"meamed/n=7,f=2,d=130":         0x67287340268169cd,
	"median/n=16,f=4,d=1000":       0x2bac808f1b3c6398,
	"median/n=33,f=8,d=517":        0xa7088cc2012504ff,
	"median/n=7,f=2,d=130":         0xa384764368752e9c,
	"phocas/n=16,f=4,d=1000":       0x6fc69964426dccf6,
	"phocas/n=33,f=8,d=517":        0xde52c702698b586f,
	"phocas/n=7,f=2,d=130":         0xfb7855c583b216db,
	"trimmedmean/n=16,f=4,d=1000":  0x46703d73b6844018,
	"trimmedmean/n=33,f=8,d=517":   0xd13274abcdb1a92e,
	"trimmedmean/n=7,f=2,d=130":    0x6ccff348744e5566,
}

// goldenCloud builds the seeded input of one golden entry: a Gaussian cloud
// around 1 whose first f rows are planted far outliers and whose last row is
// an exact duplicate of the row before it (ties the sort must not reorder
// visibly).
func goldenCloud(n, f, d int, seed uint64) [][]float64 {
	grads := cloudWithOutliers(n, f, d, 1, 0.3, 25, seed)
	rng := randx.New(seed ^ 0x9e3779b97f4a7c15)
	for i := 0; i < f; i++ {
		// Outliers differ per row and per coordinate so they do not tie.
		for j := range grads[i] {
			grads[i][j] += 3 * rng.Normal()
		}
	}
	copy(grads[n-1], grads[n-2])
	return grads
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

// TestSortedColumnGoldens is the slice of ROADMAP item 1(b) the tiled
// sorted-column kernel needs (item 1's trajectory goldens should absorb it):
// for median, trimmedmean, meamed, phocas, bulyan and centeredclip —
// every rule that enters vecmath.reduceSortedColumnsRange — it pins the
// output bits on seeded inputs, on the inline path (SetParallelism(1)) and
// on the chunked path (SetParallelism(2) with a grain small enough that the
// chunk boundary splits a tile). Float trajectories are per-architecture
// (the compiler fuses multiply-adds outside amd64, ROADMAP 1(c)), so the
// constants are pinned to GOARCH=amd64.
func TestSortedColumnGoldens(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens are pinned to GOARCH=amd64 (FMA fusion makes float results per-architecture); running on %s", runtime.GOARCH)
	}
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
// the kernel's other consumer — is pinned above. The constants
// were printed by this test at commit a70fa47 (the parent of the four-pair
// kernel) and must not be edited by a kernel change.
//
// sketched's exact re-score (cachedSqDist, sketched.go) calls vecmath.SqDist
// once per pair, so its agreement with the exact kernel rests on the matrix
// entries being those same bits.
var pairwiseGoldens = map[string]uint64{
	"krum/n=16,f=6,d=1000":           0x582e5fad5c6c4e59,
	"krum/n=33,f=15,d=517":           0x741642e124a813bd,
	"krum/n=7,f=2,d=130":             0x446671adceed90ea,
	"mda/n=16,f=7,d=1000":            0x08ce0bfba993dba1,
	"mda/n=33,f=16,d=517":            0x595f17e87dc2a866,
	"mda/n=7,f=3,d=130":              0x3df9347dc9ad03b7,
	"multikrum/n=16,f=6,d=1000":      0xa05cad1ddae567df,
	"multikrum/n=33,f=15,d=517":      0x5969f0151a5b4764,
	"multikrum/n=7,f=2,d=130":        0xcc081cde9dec9f78,
	"sketched(krum)/n=16,f=6,d=1000": 0x582e5fad5c6c4e59,
	"sketched(krum)/n=33,f=15,d=517": 0x741642e124a813bd,
	"sketched(krum)/n=7,f=2,d=130":   0x446671adceed90ea,
}

// TestPairwiseGoldens is the next slice of ROADMAP item 1(b): krum,
// multikrum, mda and the sketched kernel of krum at its default sketch, on
// the clouds of TestSortedColumnGoldens, on the inline path and on the
// row-striped one. amd64-only for the same reason.
func TestPairwiseGoldens(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens are pinned to GOARCH=amd64 (FMA fusion makes float results per-architecture); running on %s", runtime.GOARCH)
	}
	shapes := []struct{ n, f, d int }{{7, 2, 130}, {16, 4, 1000}, {33, 8, 517}}
	newRule := func(name string, n, f int) (GAR, error) {
		if name == "sketched(krum)" {
			return NewSketched("krum", n, f, SketchOptions{})
		}
		return New(name, n, f)
	}
	t.Cleanup(func() {
		vecmath.SetParallelism(0)
		vecmath.SetParallelGrain(0)
	})
	for _, sh := range shapes {
		grads := goldenCloud(sh.n, sh.f, sh.d, uint64(sh.n*1000+sh.d))
		for _, name := range []string{"krum", "multikrum", "mda", "sketched(krum)"} {
			// The largest f the rule admits at this n; the cloud keeps its
			// sh.f outliers.
			f := sh.n
			g, err := newRule(name, sh.n, f)
			for err != nil && f > 0 {
				f--
				g, err = newRule(name, sh.n, f)
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
