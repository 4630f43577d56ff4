package gar

import (
	"errors"
	"testing"

	"dpbyz/internal/randx"
	"dpbyz/internal/vecmath"
)

// The bucketed battery runs at n = s·propertyN so the inner rules see
// exactly the flat battery's (propertyN, propertyF) system size.
const (
	bucketedSize = 2
	bucketedN    = bucketedSize * propertyN
	bucketedSeed = 7
)

// bucketedRules wraps every resilient registry rule at the bucketed
// battery size.
func bucketedRules(t *testing.T) map[string]GAR {
	t.Helper()
	out := make(map[string]GAR, len(ResilientNames()))
	for _, name := range ResilientNames() {
		b, err := NewBucketed(name, bucketedN, propertyF, bucketedSize, bucketedSeed)
		if err != nil {
			t.Fatalf("bucketed(%s) rejects n=%d f=%d s=%d: %v",
				name, bucketedN, propertyF, bucketedSize, err)
		}
		out[name] = b
	}
	return out
}

// Bucketed is deliberately NOT permutation-invariant (the worker→bucket
// deal is positional), so the battery covers it with the remaining laws:
// translation equivariance, outlier clipping, and the empirical (α, f)
// deviation bound, plus seed-determinism below.
func TestBucketedTranslationEquivariance(t *testing.T) {
	for name, g := range bucketedRules(t) {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 10; seed++ {
				rng := randx.New(seed)
				cloud, _ := gaussianCloud(rng, bucketedN, propertyD, 0.3)
				shift := rng.NormalVec(make([]float64, propertyD), 2)
				base, err := g.Aggregate(cloud)
				if err != nil {
					t.Fatal(err)
				}
				shifted := make([][]float64, len(cloud))
				for i, v := range cloud {
					shifted[i] = vecmath.Add(v, shift)
				}
				got, err := g.Aggregate(shifted)
				if err != nil {
					t.Fatal(err)
				}
				if !vecmath.ApproxEqual(vecmath.Add(base, shift), got, 1e-8) {
					t.Fatalf("seed %d: bucketed aggregate not translation-equivariant", seed)
				}
			}
		})
	}
}

// One unbounded submission contaminates exactly one bucket mean; the inner
// rule (built for f contaminated buckets) must clip it.
func TestBucketedSingleOutlierClipped(t *testing.T) {
	for name, g := range bucketedRules(t) {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed++ {
				rng := randx.New(seed)
				cloud, _ := gaussianCloud(rng, bucketedN, propertyD, 0.3)
				honestMean, err := vecmath.Mean(cloud[1:])
				if err != nil {
					t.Fatal(err)
				}
				dir := rng.NormalVec(make([]float64, propertyD), 1)
				vecmath.ScaleInPlace(1/vecmath.Norm(dir), dir)
				outlierAt := func(scale float64) []float64 {
					subs := make([][]float64, len(cloud))
					copy(subs, cloud)
					subs[0] = vecmath.Scale(scale, dir)
					agg, err := g.Aggregate(subs)
					if err != nil {
						t.Fatal(err)
					}
					return agg
				}
				small, huge := outlierAt(1e3), outlierAt(1e9)
				if vecmath.Dist(small, huge) > 1e-3 {
					t.Fatalf("seed %d: outlier influence not saturated: %v",
						seed, vecmath.Dist(small, huge))
				}
				if dev := vecmath.Dist(huge, honestMean); dev > 1 {
					t.Fatalf("seed %d: aggregate strayed %v from the honest mean", seed, dev)
				}
			}
		})
	}
}

// Empirical (α, f) deviation for the wrapped rules, mirroring the flat
// battery: f crafted submissions among n − f honest, deviation measured in
// honest-spread units against the same per-rule factor table.
func TestBucketedEmpiricalAlphaF(t *testing.T) {
	factors := map[string]float64{"centeredclip": 3.0}
	factorFor := func(name string) float64 {
		if f, ok := factors[name]; ok {
			return f
		}
		return 1.5
	}
	const sigma = 0.05
	unit := sigma * 4 // σ·√propertyD
	for name, g := range bucketedRules(t) {
		t.Run(name, func(t *testing.T) {
			factor := factorFor(name)
			for seed := uint64(1); seed <= 5; seed++ {
				rng := randx.New(seed)
				honest, _ := gaussianCloud(rng, bucketedN-propertyF, propertyD, sigma)
				mean, err := vecmath.Mean(honest)
				if err != nil {
					t.Fatal(err)
				}
				std, err := vecmath.CoordStd(honest)
				if err != nil {
					t.Fatal(err)
				}
				for attackName, crafted := range byzantineFixtures(honest, mean, std) {
					subs := make([][]float64, 0, bucketedN)
					for i := 0; i < propertyF; i++ {
						subs = append(subs, crafted)
					}
					subs = append(subs, honest...)
					agg, err := g.Aggregate(subs)
					if err != nil {
						t.Fatal(err)
					}
					if ratio := vecmath.Dist(agg, mean) / unit; ratio > factor {
						t.Errorf("seed %d, attack %s: deviation %.3f·σ√d exceeds factor %.1f",
							seed, attackName, ratio, factor)
					}
					if vecmath.Dot(agg, mean) <= 0 {
						t.Errorf("seed %d, attack %s: aggregate lost the descent direction",
							seed, attackName)
					}
				}
			}
		})
	}
}

// The worker→bucket deal is a pure function of the construction seed, and
// the aggregate is bit-identical across rebuilds; a different seed deals
// differently.
func TestBucketedSeedDeterminism(t *testing.T) {
	a, err := NewBucketed("krum", bucketedN, propertyF, bucketedSize, bucketedSeed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBucketed("krum", bucketedN, propertyF, bucketedSize, bucketedSeed)
	if err != nil {
		t.Fatal(err)
	}
	asgA, asgB := a.assign, b.assign
	for i := range asgA {
		if asgA[i] != asgB[i] {
			t.Fatalf("worker %d dealt to bucket %d vs %d under the same seed", i, asgA[i], asgB[i])
		}
	}
	cloud, _ := gaussianCloud(randx.New(3), bucketedN, propertyD, 0.3)
	aggA, err := a.Aggregate(cloud)
	if err != nil {
		t.Fatal(err)
	}
	aggB, err := b.Aggregate(cloud)
	if err != nil {
		t.Fatal(err)
	}
	for j := range aggA {
		if aggA[j] != aggB[j] {
			t.Fatalf("coordinate %d not bit-identical across rebuilds", j)
		}
	}
	c, err := NewBucketed("krum", bucketedN, propertyF, bucketedSize, bucketedSeed+1)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i, v := range c.assign {
		if v != asgA[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced the same worker→bucket deal")
	}
}

// With s = 1 every bucket is a single worker, so the bucketed rule must
// agree with the flat rule up to the inner rule's permutation invariance.
func TestBucketedSizeOneMatchesFlat(t *testing.T) {
	flat, err := New("krum", propertyN, propertyF)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBucketed("krum", propertyN, propertyF, 1, bucketedSeed)
	if err != nil {
		t.Fatal(err)
	}
	cloud, _ := gaussianCloud(randx.New(5), propertyN, propertyD, 0.3)
	want, err := flat.Aggregate(cloud)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.Aggregate(cloud)
	if err != nil {
		t.Fatal(err)
	}
	if !vecmath.ApproxEqual(want, got, 1e-9) {
		t.Error("size-1 bucketing disagrees with the flat rule")
	}
}

// Uneven deals (s ∤ n) keep every worker in exactly one bucket and the
// bucket counts summing to n.
func TestBucketedUnevenLastBucket(t *testing.T) {
	b, err := NewBucketed("median", 23, 2, 4, bucketedSeed)
	if err != nil {
		t.Fatal(err)
	}
	if b.m != 6 {
		t.Fatalf("⌈23/4⌉ = 6 buckets, got %d", b.m)
	}
	counts := make([]int, b.m)
	for w, k := range b.assign {
		if k < 0 || k >= b.m {
			t.Fatalf("worker %d dealt to out-of-range bucket %d", w, k)
		}
		counts[k]++
	}
	total := 0
	for k, c := range counts {
		if c == 0 {
			t.Errorf("bucket %d is empty", k)
		}
		total += c
	}
	if total != 23 {
		t.Fatalf("bucket counts sum to %d, want 23", total)
	}
	cloud, _ := gaussianCloud(randx.New(9), 23, propertyD, 0.3)
	if _, err := b.Aggregate(cloud); err != nil {
		t.Fatal(err)
	}
}

func TestBucketedValidation(t *testing.T) {
	cases := []struct {
		name  string
		inner string
		n, f  int
		size  int
	}{
		{"unknown inner", "nope", 22, 2, 2},
		{"size beyond n", "krum", 11, 2, 12},
		{"negative size", "krum", 11, 2, -1},
		// ⌈8/4⌉ = 2 buckets cannot satisfy Krum's m > 2f + 2.
		{"inner constraint at bucket count", "krum", 8, 2, 4},
		{"bad f", "krum", 22, -1, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewBucketed(tc.inner, tc.n, tc.f, tc.size, 1); err == nil {
				t.Errorf("NewBucketed(%q, %d, %d, %d) accepted", tc.inner, tc.n, tc.f, tc.size)
			}
		})
	}
	b, err := NewBucketed("krum", 22, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b.m != 11 {
		t.Errorf("size 0 should select DefaultBucketSize=%d (11 buckets), got %d",
			DefaultBucketSize, b.m)
	}
	if b.Name() != "bucketed(krum)" {
		t.Errorf("name %q", b.Name())
	}
	if b.KF() <= b.inner.KF() {
		t.Errorf("bucketed KF %v should scale the inner constant %v up by √s",
			b.KF(), b.inner.KF())
	}
	wrongCount := make([][]float64, 3)
	for i := range wrongCount {
		wrongCount[i] = make([]float64, 4)
	}
	if _, err := b.Aggregate(wrongCount); !errors.Is(err, ErrWrongInputCount) {
		t.Errorf("wrong input count error = %v", err)
	}
}

// Steady-state allocation gate for the wrapper, mirroring
// TestAggregateIntoZeroAllocs.
func TestBucketedZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector; alloc counts are meaningless")
	}
	vecmath.SetParallelism(1)
	defer vecmath.SetParallelism(0)
	const n, f, s, d = 24, 2, 2, 128
	b, err := NewBucketed("krum", n, f, s, 1)
	if err != nil {
		t.Fatal(err)
	}
	grads := make([][]float64, n)
	rng := randx.New(11)
	for i := range grads {
		grads[i] = rng.NormalVec(make([]float64, d), 1)
	}
	dst := make([]float64, d)
	for i := 0; i < 3; i++ {
		if err := b.AggregateInto(dst, grads); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := b.AggregateInto(dst, grads); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("bucketed AggregateInto allocates %v objects per steady-state call", allocs)
	}
}

// benchGrads builds an n×d Gaussian cloud for the flat-vs-bucketed
// benchmark pair.
func benchGrads(n, d int) [][]float64 {
	rng := randx.New(42)
	grads := make([][]float64, n)
	for i := range grads {
		grads[i] = rng.NormalVec(make([]float64, d), 1)
	}
	return grads
}

// The bucketed speed-up recorded in CHANGES.md (PR 7) comes from this pair:
// Krum over n=256 flat is Θ(n²·d); bucketed with s=8 runs the same rule over
// m=32 bucket means.
func BenchmarkKrumFlat256(b *testing.B) {
	const n, f, d = 256, 8, 1000
	g, err := New("krum", n, f)
	if err != nil {
		b.Fatal(err)
	}
	grads := benchGrads(n, d)
	dst := make([]float64, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := AggregateInto(g, dst, grads); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKrumBucketed256(b *testing.B) {
	const n, f, d, s = 256, 8, 1000, 8
	g, err := NewBucketed("krum", n, f, s, 1)
	if err != nil {
		b.Fatal(err)
	}
	grads := benchGrads(n, d)
	dst := make([]float64, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.AggregateInto(dst, grads); err != nil {
			b.Fatal(err)
		}
	}
}
