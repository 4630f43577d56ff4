package data

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
)

// requireSameDataset fails unless got and want hold the same points, bit for
// bit — every coordinate, label and cached ‖x‖² — and got's rows are capped
// at its dimension, so appending to one row cannot write into the next.
func requireSameDataset(t testing.TB, got, want *Dataset) {
	t.Helper()
	if got.Len() != want.Len() || got.Dim() != want.Dim() {
		t.Fatalf("shape %d × %d, want %d × %d", got.Len(), got.Dim(), want.Len(), want.Dim())
	}
	for i, p := range got.Points() {
		q := want.Point(i)
		if len(p.X) != got.Dim() || cap(p.X) != got.Dim() {
			t.Fatalf("point %d: row len %d cap %d, want both %d", i, len(p.X), cap(p.X), got.Dim())
		}
		for j := range p.X {
			if math.Float64bits(p.X[j]) != math.Float64bits(q.X[j]) {
				t.Fatalf("point %d coordinate %d = %v, want %v", i, j, p.X[j], q.X[j])
			}
		}
		if math.Float64bits(p.Y) != math.Float64bits(q.Y) {
			t.Fatalf("point %d label = %v, want %v", i, p.Y, q.Y)
		}
		if math.Float64bits(got.xsq[i]) != math.Float64bits(want.xsq[i]) {
			t.Fatalf("point %d ‖x‖² = %v, want %v", i, got.xsq[i], want.xsq[i])
		}
	}
}

// The single-pass generator must make the oracle's dataset, bit for bit, at
// every feature count from 1 to past a whole j%3 period and at the two
// shapes the benchmark runs (11,055 × 68 and 512 × 9,999). 11,055 × 9,999
// is left out: the two copies would take 1.8 GB.
func TestSyntheticPhishingMatchesOracle(t *testing.T) {
	for _, n := range []int{1, 9, 512, 11_055} {
		for _, f := range []int{1, 2, 3, 4, 5, 68, 9_999} {
			if n*f > 512*9_999 {
				continue
			}
			for k, seed := range []uint64{0, 1, math.MaxUint64} {
				// Noise rate 0 is the default, 0.05; 1 flips every label.
				cfg := SyntheticPhishingConfig{N: n, Features: f, Seed: seed, NoiseRate: []float64{0, 0.3, 1}[k]}
				t.Run(fmt.Sprintf("%dx%d/seed=%d", n, f, seed), func(t *testing.T) {
					got, err := SyntheticPhishing(cfg)
					if err != nil {
						t.Fatal(err)
					}
					want, err := syntheticPhishingRef(cfg)
					if err != nil {
						t.Fatal(err)
					}
					requireSameDataset(t, got, want)
				})
			}
		}
	}
}

func TestGaussianGeneratorsMatchOracles(t *testing.T) {
	for _, n := range []int{2, 9, 512} {
		for _, dim := range []int{1, 2, 5, 68} {
			for _, seed := range []uint64{0, math.MaxUint64} {
				name := fmt.Sprintf("%dx%d/seed=%d", n, dim, seed)
				t.Run("GaussianMean/"+name, func(t *testing.T) {
					cfg := GaussianMeanConfig{N: n, Dim: dim, Sigma: 1.5, Seed: seed}
					got, gotCenter, err := GaussianMean(cfg)
					if err != nil {
						t.Fatal(err)
					}
					want, wantCenter, err := gaussianMeanRef(cfg)
					if err != nil {
						t.Fatal(err)
					}
					requireSameDataset(t, got, want)
					for j := range gotCenter {
						if math.Float64bits(gotCenter[j]) != math.Float64bits(wantCenter[j]) {
							t.Fatalf("center[%d] = %v, want %v", j, gotCenter[j], wantCenter[j])
						}
					}
					// An explicit center draws no center variates.
					cfg.Center = wantCenter
					got, _, err = GaussianMean(cfg)
					if err != nil {
						t.Fatal(err)
					}
					want, _, err = gaussianMeanRef(cfg)
					if err != nil {
						t.Fatal(err)
					}
					requireSameDataset(t, got, want)
				})
				t.Run("TwoGaussians/"+name, func(t *testing.T) {
					cfg := TwoGaussiansConfig{N: n, Dim: dim, Separation: 3, Seed: seed}
					got, err := TwoGaussians(cfg)
					if err != nil {
						t.Fatal(err)
					}
					want, err := twoGaussiansRef(cfg)
					if err != nil {
						t.Fatal(err)
					}
					requireSameDataset(t, got, want)
				})
			}
		}
	}
}

// datasetHash is the FNV-64a hash of a dataset's bits: per point, its
// coordinates, its label and its cached ‖x‖², each a little-endian float64.
func datasetHash(ds *Dataset) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for i, p := range ds.Points() {
		for _, x := range p.X {
			put(x)
		}
		put(p.Y)
		put(ds.xsq[i])
	}
	return h.Sum64()
}

// TestSyntheticPhishingGolden pins the paper-shape dataset (the defaults:
// 11,055 × 68, seed 0) and the wide cluster shape (512 × 9,999, seed 1) to
// hashes generated at 622a6f8, before the single-pass generator. They hold
// on amd64 and 386, which never fuse a multiply-add; elsewhere the
// compiler may fuse the separator score's w·x and the norms' x·x.
func TestSyntheticPhishingGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "386" {
		t.Skipf("goldens are pinned to amd64 and 386 (FMA fusion makes float results per-architecture); running on %s", runtime.GOARCH)
	}
	for _, tc := range []struct {
		cfg  SyntheticPhishingConfig
		want uint64
	}{
		{SyntheticPhishingConfig{}, 0x831aac665c4dc85c},
		{SyntheticPhishingConfig{N: 512, Features: 9_999, Seed: 1}, 0x9b7c0d379a9ba735},
	} {
		ds, err := SyntheticPhishing(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := datasetHash(ds); got != tc.want {
			t.Errorf("%d × %d seed %d: hash %#x, want %#x", ds.Len(), ds.Dim(), tc.cfg.Seed, got, tc.want)
		}
	}
}

// A point count times feature count past the int range is refused before
// anything is allocated, by every generator.
func TestGeneratorsRefuseOverflowingShapes(t *testing.T) {
	n := math.MaxInt/2 + 1
	if _, err := SyntheticPhishing(SyntheticPhishingConfig{N: n, Features: 2}); err == nil {
		t.Error("SyntheticPhishing: no error")
	}
	if _, _, err := GaussianMean(GaussianMeanConfig{N: n, Dim: 2, Sigma: 1}); err == nil {
		t.Error("GaussianMean: no error")
	}
	if _, err := TwoGaussians(TwoGaussiansConfig{N: n, Dim: 2}); err == nil {
		t.Error("TwoGaussians: no error")
	}
}

func FuzzSyntheticPhishing(f *testing.F) {
	f.Add(uint16(1), uint16(1), uint64(0), 0.0)
	f.Add(uint16(9), uint16(4), uint64(7), 0.3)
	f.Add(uint16(40), uint16(68), uint64(math.MaxUint64), 1.0)
	f.Fuzz(func(t *testing.T, n, features uint16, seed uint64, noise float64) {
		cfg := SyntheticPhishingConfig{N: 1 + int(n%64), Features: 1 + int(features%100), Seed: seed, NoiseRate: noise}
		got, err := SyntheticPhishing(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := syntheticPhishingRef(cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireSameDataset(t, got, want)
	})
}

// The generator against its oracle at the two shapes the benchmark runs:
// the paper's figures and the wide cluster workloads.
func BenchmarkSyntheticPhishing(b *testing.B) {
	for _, shape := range []struct{ n, f int }{{PhishingSize, PhishingFeatures}, {512, 9_999}} {
		cfg := SyntheticPhishingConfig{N: shape.n, Features: shape.f, Seed: 1}
		b.Run(fmt.Sprintf("%dx%d/pass", shape.n, shape.f), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := SyntheticPhishing(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%dx%d/ref", shape.n, shape.f), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := syntheticPhishingRef(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
