package randx

import (
	"math"
	"testing"
)

// The ziggurat tables must tile the density exactly: equal-area strips whose
// cumulative heights reach f(0) = 1 and whose x-edges decrease to 0.
func TestZigguratTableConsistency(t *testing.T) {
	if zigX[1] != zigR {
		t.Fatalf("zigX[1] = %v, want R", zigX[1])
	}
	for i := 1; i < zigStrips; i++ {
		if zigX[i+1] >= zigX[i] {
			t.Fatalf("zigX not strictly decreasing at %d: %v >= %v", i, zigX[i+1], zigX[i])
		}
		if zigY[i+1] <= zigY[i] {
			t.Fatalf("zigY not strictly increasing at %d", i)
		}
		// zigY[i] must be f(zigX[i]).
		if f := math.Exp(-0.5 * zigX[i] * zigX[i]); math.Abs(f-zigY[i]) > 1e-12 {
			t.Fatalf("zigY[%d] = %v, want f(x) = %v", i, zigY[i], f)
		}
	}
	// The recurrence must close the ziggurat at the mode: the last strip's
	// top edge lands on f(0) = 1 up to the table constants' precision.
	closure := zigY[zigStrips-1] + zigV/zigX[zigStrips-1]
	if math.Abs(closure-1) > 1e-7 {
		t.Fatalf("ziggurat does not close: top edge %v", closure)
	}
	// Base strip: rectangle area matches the shared strip area V.
	if a := zigX[0] * zigY[1]; math.Abs(a-zigV) > 1e-15 {
		t.Fatalf("base strip area %v != V", a)
	}
}

// Ziggurat moments: mean 0, variance 1, plus tail mass in the right ballpark
// (the tail path must actually fire).
func TestZigguratMomentsAndTail(t *testing.T) {
	r := New(123)
	const n = 500000
	var sum, sumSq, sumCube float64
	tail := 0
	for i := 0; i < n; i++ {
		x := r.Normal()
		sum += x
		sumSq += x * x
		sumCube += x * x * x
		if math.Abs(x) > zigR {
			tail++
		}
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("variance = %v", variance)
	}
	if math.Abs(sumCube/n) > 0.03 {
		t.Errorf("third moment = %v, want ~0", sumCube/n)
	}
	// P(|X| > 3.654) ≈ 2.58e-4: with 5e5 draws expect ≈ 129.
	if tail < 60 || tail > 260 {
		t.Errorf("tail draws = %d, want ≈ 129", tail)
	}
}

// Per-interval frequencies against the normal CDF — a coarse goodness-of-fit
// check that would catch mis-stacked strips.
func TestZigguratDistribution(t *testing.T) {
	r := New(77)
	const n = 200000
	edges := []float64{-2, -1, -0.5, 0, 0.5, 1, 2}
	counts := make([]int, len(edges)+1)
	for i := 0; i < n; i++ {
		x := r.Normal()
		b := 0
		for b < len(edges) && x > edges[b] {
			b++
		}
		counts[b]++
	}
	cdf := func(x float64) float64 { return 0.5 * (1 + math.Erf(x/math.Sqrt2)) }
	prev := 0.0
	for b := range counts {
		var p float64
		if b == len(edges) {
			p = 1 - prev
		} else {
			c := cdf(edges[b])
			p = c - prev
			prev = c
		}
		want := p * n
		if math.Abs(float64(counts[b])-want) > 6*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d, want ≈ %.0f", b, counts[b], want)
		}
	}
}

// zigPaths counts how often normalRef left the inner rectangles.
type zigPaths struct{ wedge, tail int }

// normalRef is the per-variate ziggurat loop as it stood before the bulk
// fill, kept verbatim as the oracle: fillNormal must reproduce its variates
// and its stream position exactly. It also counts the slow paths taken so a
// test can show it exercised them.
func normalRef(r *Stream, paths *zigPaths) float64 {
	for {
		u := r.Uint64()
		i := int(u & 0xFF)
		x := float64(int64(u)>>11) * (1.0 / (1 << 52)) * zigX[i]
		if math.Abs(x) < zigX[i+1] {
			return x
		}
		if i == 0 {
			paths.tail++
			return r.normalTail(x < 0)
		}
		paths.wedge++
		if zigY[i]+r.Float64()*(zigY[i+1]-zigY[i]) < math.Exp(-0.5*x*x) {
			return x
		}
	}
}

// checkFill runs the bulk fill — NormalVec and AddNormalVec, which take the
// assembly loop on amd64, and fillNormalGeneric, the Go loop — from state
// st, with v nil, separate from dst and aliased to it, against the
// per-variate loop, and reports the first bit or stream-position mismatch.
func checkFill(t *testing.T, st StreamState, n int, sigma float64, paths *zigPaths) {
	t.Helper()
	v := make([]float64, n)
	for k := range v {
		v[k] = float64(k%7) - 3.5
	}
	ref := Restore(st)
	scalar := Restore(st)
	wantVec := make([]float64, n)
	wantAdd := make([]float64, n)
	for k := range wantVec {
		z := normalRef(ref, paths)
		if got := scalar.Normal(); math.Float64bits(got) != math.Float64bits(z) {
			t.Fatalf("n=%d σ=%g: Normal variate %d = %v, reference %v", n, sigma, k, got, z)
		}
		wantVec[k] = sigma * z
		wantAdd[k] = v[k] + sigma*z
	}
	for _, body := range []struct {
		name string
		fill func(r *Stream, dst, v []float64) []float64
	}{
		{"fillNormal", func(r *Stream, dst, v []float64) []float64 {
			if v == nil {
				return r.NormalVec(dst, sigma)
			}
			return r.AddNormalVec(dst, v, sigma)
		}},
		{"fillNormalGeneric", func(r *Stream, dst, v []float64) []float64 {
			r.fillNormalGeneric(dst, v, sigma)
			return dst
		}},
	} {
		aliased := append([]float64(nil), v...)
		for _, c := range []struct {
			name   string
			dst, v []float64
			want   []float64
		}{
			{"v nil", make([]float64, n), nil, wantVec},
			{"v separate", make([]float64, n), v, wantAdd},
			{"v aliased", aliased, aliased, wantAdd},
		} {
			r := Restore(st)
			got := body.fill(r, c.dst, c.v)
			if len(got) != n {
				t.Fatalf("%s %s n=%d: returned length %d", body.name, c.name, n, len(got))
			}
			for k := range got {
				if math.Float64bits(got[k]) != math.Float64bits(c.want[k]) {
					t.Fatalf("%s %s n=%d σ=%g: variate %d = %v, per-variate loop %v", body.name, c.name, n, sigma, k, got[k], c.want[k])
				}
			}
			if r.State() != ref.State() {
				t.Fatalf("%s %s n=%d σ=%g: stream state %v, per-variate loop %v", body.name, c.name, n, sigma, r.State(), ref.State())
			}
		}
	}
}

// The bulk fill is the per-variate loop, bit for bit and stream position
// for stream position, at every length and scale, through the wedge and the
// tail.
func TestNormalFillMatchesNormal(t *testing.T) {
	var paths zigPaths
	for seed := uint64(1); seed <= 12; seed++ {
		st := New(seed).State()
		for _, n := range []int{0, 1, 7, 10_003} {
			for _, sigma := range []float64{0, 1e-300, 1, 1e300} {
				checkFill(t, st, n, sigma, &paths)
			}
		}
	}
	if paths.wedge == 0 || paths.tail == 0 {
		t.Fatalf("slow paths not exercised: %d wedge, %d tail draws", paths.wedge, paths.tail)
	}
}

func FuzzNormalFill(f *testing.F) {
	f.Add(uint64(1), uint16(0), 1.0)
	f.Add(uint64(2), uint16(1), 0.0)
	f.Add(uint64(3), uint16(4099), 1e300)
	f.Add(uint64(4), uint16(257), -2.5)
	f.Add(uint64(5), uint16(64), math.Inf(1))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, sigma float64) {
		var paths zigPaths
		checkFill(t, New(seed).State(), int(n), sigma, &paths)
	})
}

// firstCandidate names the path the first candidate drawn from st takes:
// "inside" its strip's inner rectangle, the "tail", or the wedge, where it
// is "wedge accepted" or "wedge rejected" (a fresh candidate follows).
func firstCandidate(st StreamState) string {
	r := Restore(st)
	x, i, inside := zigStrip(r.Uint64())
	switch {
	case inside:
		return "inside"
	case i == 0:
		return "tail"
	}
	if _, ok := r.zigOuter(x, i); ok {
		return "wedge accepted"
	}
	return "wedge rejected"
}

// The assembly fill leaves its loop for every candidate outside the inner
// rectangle and enters it again at the same index. TestNormalFillSlowPaths
// starts fills where the first, the middle or the last variate begins with
// a tail candidate, an accepted wedge or a rejected one, at every length
// from 1 to 70 and at 10⁴, and requires the variates and the final stream
// position of the per-variate loop (checkFill: NormalVec, AddNormalVec and
// fillNormalGeneric, v nil, separate and aliased).
func TestNormalFillSlowPaths(t *testing.T) {
	// A reference stream, with the state in front of each variate and the
	// path of that variate's first candidate.
	const span = 60_000
	r := New(44)
	states := make([]StreamState, span)
	kinds := make([]string, span)
	var paths zigPaths
	for g := range states {
		states[g] = r.State()
		kinds[g] = firstCandidate(states[g])
		normalRef(r, &paths)
	}
	// startFor returns a start state whose variate p begins with a candidate
	// of the given kind: the state p variates ahead of such a variate.
	startFor := func(kind string, p int) StreamState {
		for g := p; g < span; g++ {
			if kinds[g] == kind {
				return states[g-p]
			}
		}
		t.Fatalf("no %q variate at or after %d in %d reference variates", kind, p, span)
		return StreamState{}
	}
	lengths := []int{10_000}
	for n := 1; n <= 70; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for _, kind := range []string{"tail", "wedge accepted", "wedge rejected"} {
			for _, p := range []int{0, n / 2, n - 1} {
				checkFill(t, startFor(kind, p), n, 1.5, &paths)
			}
		}
	}
	checkFill(t, New(44).State(), 0, 1.5, &paths)
}
