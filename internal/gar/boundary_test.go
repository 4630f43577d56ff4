package gar

import (
	"math"
	"testing"
)

// TestConstructorBoundaryBattery drives every constraint-bearing rule at its
// exact admission boundary for a sweep of f: the minimal legal n must
// construct AND aggregate a real cloud, and n−1 must be rejected. The
// aggregate call matters — an off-by-one that the constructor admits
// surfaces as a panic or a degenerate selection only when the kernel runs
// (Krum at n = 2f+3 has a single-element neighbourhood, Bulyan at n = 4f+3
// drains its alive set to exactly 2f+2 before the min-norm fallback).
func TestConstructorBoundaryBattery(t *testing.T) {
	build := map[string]struct {
		minN func(f int) int
		ctor func(n, f int) (GAR, error)
	}{
		"krum": {
			minN: func(f int) int { return 2*f + 3 },
			ctor: func(n, f int) (GAR, error) { return NewKrum(n, f) },
		},
		"multikrum-max-m": {
			minN: func(f int) int { return 2*f + 3 },
			ctor: func(n, f int) (GAR, error) { return NewMultiKrum(n, f, n-f-2) },
		},
		"bulyan": {
			minN: func(f int) int { return 4*f + 3 },
			ctor: func(n, f int) (GAR, error) { return NewBulyan(n, f) },
		},
		"mda": {
			minN: func(f int) int { return 2*f + 1 },
			ctor: func(n, f int) (GAR, error) { return NewMDA(n, f) },
		},
	}
	const d = 9
	for name, b := range build {
		for f := 0; f <= 4; f++ {
			n := b.minN(f)
			g, err := b.ctor(n, f)
			if err != nil {
				t.Errorf("%s: rejected minimal legal n=%d f=%d: %v", name, n, f, err)
				continue
			}
			grads := cloudWithOutliers(n, f, d, 1, 0.2, 20, uint64(f)+1)
			out, err := g.Aggregate(grads)
			if err != nil {
				t.Errorf("%s: aggregate at boundary n=%d f=%d: %v", name, n, f, err)
			} else if len(out) != d {
				t.Errorf("%s: boundary aggregate returned %d coordinates", name, len(out))
			}
			if f == 0 {
				continue // n−1 at f=0 may still be legal for another reason
			}
			if _, err := b.ctor(n-1, f); err == nil {
				t.Errorf("%s: accepted n=%d below the boundary for f=%d", name, n-1, f)
			}
		}
	}
}

// TestBucketedBoundaryBattery covers the bucketed wrapper where s does not
// divide n: the last bucket is short, the inner rule's constraint is checked
// at the bucket count m = ⌈n/s⌉, and a short last bucket must still produce
// a correctly weighted mean (counts, not size, divide the sums).
func TestBucketedBoundaryBattery(t *testing.T) {
	const d = 7
	cases := []struct {
		inner   string
		n, f, s int
		wantErr bool
	}{
		// 13 workers in buckets of 2 → m = 7 buckets, last bucket short.
		{"krum", 13, 2, 2, false},
		// 13/2 → m = 7; bulyan needs m >= 4f+3 = 11 > 7: rejected.
		{"bulyan", 13, 2, 2, true},
		// 23/3 → m = 8 (last bucket holds 2); krum needs m > 2f+2 = 6: ok.
		{"krum", 23, 2, 3, false},
		// 9/4 → m = 3 (last bucket holds 1); mda needs 2f < m: f=1 ok.
		{"mda", 9, 1, 4, false},
		// 9/4 → m = 3; krum needs m > 2f+2 = 4: rejected.
		{"krum", 9, 1, 4, true},
		// s > n rejected outright.
		{"krum", 5, 0, 6, true},
	}
	for _, tc := range cases {
		b, err := NewBucketed(tc.inner, tc.n, tc.f, tc.s, 11)
		if tc.wantErr {
			if err == nil {
				t.Errorf("bucketed(%s) n=%d f=%d s=%d: accepted", tc.inner, tc.n, tc.f, tc.s)
			}
			continue
		}
		if err != nil {
			t.Errorf("bucketed(%s) n=%d f=%d s=%d: %v", tc.inner, tc.n, tc.f, tc.s, err)
			continue
		}
		wantM := (tc.n + tc.s - 1) / tc.s
		if b.m != wantM {
			t.Errorf("bucketed(%s): %d buckets, want %d", tc.inner, b.m, wantM)
		}
		grads := cloudWithOutliers(tc.n, tc.f, d, 1, 0.2, 20, 3)
		out, err := b.Aggregate(grads)
		if err != nil {
			t.Errorf("bucketed(%s) aggregate: %v", tc.inner, err)
		} else if len(out) != d {
			t.Errorf("bucketed(%s) returned %d coordinates", tc.inner, len(out))
		}
		// Every worker lands in exactly one bucket and the counts sum to n.
		assign := b.assign
		seen := make([]int, wantM)
		for w, k := range assign {
			if k < 0 || k >= wantM {
				t.Fatalf("bucketed(%s): worker %d assigned to bucket %d of %d", tc.inner, w, k, wantM)
			}
			seen[k]++
		}
		total := 0
		for _, c := range seen {
			if c == 0 {
				t.Errorf("bucketed(%s): empty bucket", tc.inner)
			}
			total += c
		}
		if total != tc.n {
			t.Errorf("bucketed(%s): bucket counts sum to %d, want %d", tc.inner, total, tc.n)
		}
	}
}

// TestNonFiniteSubmissionsAreContained pins the Byzantine non-finite
// contract of the coordinate-wise rules. The server does not filter
// submissions before the GAR, so f workers may send NaN, +Inf or −Inf: the
// sorted-column kernel orders NaN first (like −∞), hence median and trimmed
// mean trim them with the other extremes and return a finite value inside
// the honest coordinate range — one NaN must never turn into a dead run.
// For all four rules the d-wide aggregate must also be bit-equal to the rule
// applied one coordinate at a time: a poisoned coordinate may not change its
// neighbours' results, whichever path (tile or per-column fallback) they take.
func TestNonFiniteSubmissionsAreContained(t *testing.T) {
	const d = 700
	nan, pinf, ninf := math.NaN(), math.Inf(1), math.Inf(-1)
	kinds := map[string][]float64{
		"nan":   {nan},
		"+inf":  {pinf},
		"-inf":  {ninf},
		"mixed": {nan, pinf, ninf},
	}
	// Every coordinate, or one in 97 — at these n a tile of the kernel is at
	// most 256 columns wide, so every tile still holds a poisoned column.
	strides := map[string]int{"every-coordinate": 1, "one-per-tile": 97}
	for _, nf := range []struct{ n, f int }{{16, 4}, {9, 2}} {
		n, f := nf.n, nf.f
		for kind, vals := range kinds {
			for where, stride := range strides {
				grads := cloudWithOutliers(n, 0, d, 1, 0.3, 0, uint64(n))
				for i := 0; i < f; i++ {
					for j := i % stride; j < d; j += stride {
						grads[i][j] = vals[(i+j/stride)%len(vals)]
					}
				}
				for _, name := range []string{"median", "trimmedmean", "meamed", "phocas"} {
					g, err := New(name, n, f)
					if err != nil {
						t.Fatal(err)
					}
					out := make([]float64, d)
					if err := AggregateInto(g, out, grads); err != nil {
						t.Fatalf("%s n=%d %s %s: %v", name, n, kind, where, err)
					}
					one, column := make([]float64, 1), make([][]float64, n)
					for j := range out {
						lo, hi := pinf, ninf
						for i, gr := range grads {
							column[i] = gr[j : j+1]
							if i >= f {
								lo, hi = min(lo, gr[j]), max(hi, gr[j])
							}
						}
						if err := AggregateInto(g, one, column); err != nil {
							t.Fatal(err)
						}
						if math.Float64bits(out[j]) != math.Float64bits(one[0]) {
							t.Fatalf("%s n=%d %s %s: out[%d] = %v, alone %v", name, n, kind, where, j, out[j], one[0])
						}
						if (name == "median" || name == "trimmedmean") && !(lo <= out[j] && out[j] <= hi) {
							t.Fatalf("%s n=%d %s %s: out[%d] = %v outside the honest range [%v, %v]",
								name, n, kind, where, j, out[j], lo, hi)
						}
					}
				}
			}
		}
	}
}
