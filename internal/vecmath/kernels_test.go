package vecmath

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"testing"

	"dpbyz/internal/randx"
)

// kernelSpecials are the values the differential tests plant: signed zeros,
// infinities, NaN, subnormals and magnitudes whose products overflow to ±Inf
// or underflow into the subnormal range.
var kernelSpecials = []float64{
	math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -0x1.8p-1060, 0x1.fffffp-1023,
	1e300, -3e300, 1e-300, -7e-300,
}

// offsetVec returns an n-vector that starts off elements into its backing
// array (offsets 0–3 put its first element at every 8-byte position of a
// 32-byte vector load), filled by at(j).
func offsetVec(n, off int, at func(j int) float64) []float64 {
	v := make([]float64, n+off)[off:]
	for j := range v {
		v[j] = at(j)
	}
	return v
}

// kernelFills are the value patterns of TestKernelsMatchGeneric: row r,
// coordinate j.
func kernelFills(rng *randx.Stream) []struct {
	name string
	at   func(r, j int) float64
} {
	gauss := func() float64 { return rng.Normal() * math.Pow(10, float64(rng.Intn(7)-3)) }
	return []struct {
		name string
		at   func(r, j int) float64
	}{
		{"gaussian", func(r, j int) float64 { return gauss() }},
		{"planted", func(r, j int) float64 {
			if (r+2*j)%5 == 0 {
				return kernelSpecials[(r+j)%len(kernelSpecials)]
			}
			return gauss()
		}},
		{"specials", func(r, j int) float64 { return kernelSpecials[(3*r+j)%len(kernelSpecials)] }},
		{"huge", func(r, j int) float64 { return 1e300 * gauss() }},
		{"tiny", func(r, j int) float64 { return 1e-300 * gauss() }},
		{"subnormal", func(r, j int) float64 { return 0x1p-1040 * gauss() }},
		{"ties", func(r, j int) float64 { return tieValues[rng.Intn(len(tieValues))] }},
	}
}

// tieValues is the "ties" fill's alphabet: few enough values that most
// compare-exchanges meet equal operands.
var tieValues = []float64{math.Inf(-1), -1, 0, 0.5, 0.5, 2, math.Inf(1)}

// tileValue maps x into the values gatherTile lets through to the sorting
// network: NaN becomes +Inf and −0 becomes +0. ±Inf, subnormals and every
// other value stay.
func tileValue(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return math.Inf(1)
	case x == 0:
		return 0
	}
	return x
}

// requireMinMaxRowsMatchGeneric runs the sorting network's compare-exchange
// and its Go loop on copies of the rows a and b and fails on the first
// element whose bits differ.
func requireMinMaxRowsMatchGeneric(t *testing.T, a, b []float64, label string) {
	t.Helper()
	ka, kb := Clone(a), Clone(b)
	minMaxRows(a, b)
	minMaxRowsGeneric(ka, kb)
	for k := range a {
		if math.Float64bits(a[k]) != math.Float64bits(ka[k]) || math.Float64bits(b[k]) != math.Float64bits(kb[k]) {
			t.Fatalf("%s: minMaxRows [%d] = (%#x, %#x), generic (%#x, %#x)", label, k,
				math.Float64bits(a[k]), math.Float64bits(b[k]), math.Float64bits(ka[k]), math.Float64bits(kb[k]))
		}
	}
}

// requireKernelsMatchGeneric runs each kernel and its Go body on the same
// rows and fails on the first result whose bits differ (NaN-ness only for a
// NaN, sameBits).
func requireKernelsMatchGeneric(t *testing.T, rows [][]float64, coef []float64, label string) {
	t.Helper()
	p, q := DotBlocked2(rows[0], rows[1], rows[2])
	wp, wq := dotBlocked2Generic(rows[0], rows[1], rows[2])
	if !sameBits(p, wp) || !sameBits(q, wq) {
		t.Fatalf("%s: DotBlocked2 = (%#x, %#x), generic (%#x, %#x)", label,
			math.Float64bits(p), math.Float64bits(q), math.Float64bits(wp), math.Float64bits(wq))
	}

	// The tile as the pairwise pass calls it: four rows and two points, one
	// point passed twice (q == p, an odd n's last row), and one row repeated
	// (the padding of a sweep with fewer than four rows left).
	for _, c := range []struct {
		name string
		a    [4]int
		p, q int
	}{
		{"tile", [4]int{1, 2, 3, 4}, 0, 5},
		{"q == p", [4]int{1, 2, 3, 4}, 0, 0},
		{"repeated rows", [4]int{1, 2, 2, 2}, 0, 5},
	} {
		var s, ws [8]float64
		a, p, q := c.a, rows[c.p], rows[c.q]
		sqDist4x2(&s, rows[a[0]], rows[a[1]], rows[a[2]], rows[a[3]], p, q)
		sqDist4x2Generic(&ws, rows[a[0]], rows[a[1]], rows[a[2]], rows[a[3]], p, q)
		for i := range s {
			if !sameBits(s[i], ws[i]) {
				t.Fatalf("%s: sqDist4x2 %s out[%d] = %#x, generic %#x", label, c.name, i, math.Float64bits(s[i]), math.Float64bits(ws[i]))
			}
		}
	}

	got, want := Clone(rows[0]), Clone(rows[0])
	Axpy4(got, coef[0], rows[1], coef[1], rows[2], coef[2], rows[3], coef[3], rows[4])
	axpy4Generic(want, coef[0], rows[1], coef[1], rows[2], coef[2], rows[3], coef[3], rows[4])
	requireSameRow(t, got, want, label+": Axpy4")
}

// requireAxpyScaleMatchGeneric runs Axpy into d, Axpy with d as its own x,
// then ScaleInPlace on d, and the three Go loops on a copy of d, and fails
// on the first element whose bits differ.
func requireAxpyScaleMatchGeneric(t *testing.T, d, x, coef []float64, label string) {
	t.Helper()
	want := Clone(d)
	Axpy(coef[0], x, d)
	axpyGeneric(coef[0], x, want)
	requireSameRow(t, d, want, label+": Axpy")
	Axpy(coef[1], d, d)
	axpyGeneric(coef[1], want, want)
	requireSameRow(t, d, want, label+": Axpy aliased")
	ScaleInPlace(coef[2], d)
	scaleInPlaceGeneric(coef[2], want)
	requireSameRow(t, d, want, label+": ScaleInPlace")
}

// requireSameRow fails on the first element of got whose bits differ from
// want's (NaN-ness only for a NaN, sameBits).
func requireSameRow(t *testing.T, got, want []float64, label string) {
	t.Helper()
	for j := range got {
		if !sameBits(got[j], want[j]) {
			t.Fatalf("%s dst[%d] = %#x, generic %#x", label, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
		}
	}
}

// TestKernelsMatchGeneric is the differential test of the six kernels
// that have an assembly body — DotBlocked2, sqDist4x2, Axpy4, minMaxRows,
// Axpy and ScaleInPlace — against their Go loops, bit for bit: every length from 0 to
// 70 (each residue of the unrolled blocks and both tails), rows at element
// offsets 0 to 3 (every 8-byte misalignment of a 32-byte load), and values
// that are Gaussian, planted with or made of ±0, ±Inf, NaN and subnormals,
// scaled so that products overflow or underflow, or drawn from a handful so
// that most pairs tie. minMaxRows gets the same rows through tileValue,
// its contract being the tiles gatherTile admits. Axpy's destination and
// source sit at different offsets.
func TestKernelsMatchGeneric(t *testing.T) {
	rng := randx.New(40)
	for _, fill := range kernelFills(rng) {
		for n := 0; n <= 70; n++ {
			for off := range 4 {
				rows := make([][]float64, 6)
				for r := range rows {
					rows[r] = offsetVec(n, (off+r)%4, func(j int) float64 { return fill.at(r, j) })
				}
				coef := offsetVec(4, 0, func(j int) float64 { return fill.at(6, n+j) })
				label := fmt.Sprintf("%s n=%d offset=%d", fill.name, n, off)
				requireKernelsMatchGeneric(t, rows, coef, label)
				a := offsetVec(n, off, func(j int) float64 { return tileValue(rows[0][j]) })
				b := offsetVec(n, 3-off, func(j int) float64 { return tileValue(rows[1][j]) })
				requireMinMaxRowsMatchGeneric(t, a, b, label)
				d := offsetVec(n, 3-off, func(j int) float64 { return rows[5][j] })
				requireAxpyScaleMatchGeneric(t, d, rows[2], coef, label)
			}
		}
	}
}

// TestAVX2ProbeMatchesCPUInfo checks the CPUID / XGETBV decode behind
// useAVX2 and useAVX2FMA against an independent source: Linux lists avx and
// avx2 in /proc/cpuinfo only when the CPU has them and the kernel saves the
// YMM registers, which is exactly the condition the AVX2 loops need, and fma
// when the CPU has the fused multiply-adds, which the sigmoid loop also
// needs.
func TestAVX2ProbeMatchesCPUInfo(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("the probe runs on amd64 and /proc/cpuinfo is Linux's; this is %s/%s", runtime.GOOS, runtime.GOARCH)
	}
	if puregoBuild {
		t.Skip("the purego tag leaves the probe out: useAVX2 and useAVX2FMA are false constants")
	}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var flags []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if name, value, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(value)
			break
		}
	}
	if flags == nil {
		t.Fatal("no flags line in /proc/cpuinfo")
	}
	want := slices.Contains(flags, "avx") && slices.Contains(flags, "avx2")
	if useAVX2 != want {
		t.Fatalf("useAVX2 = %v, but /proc/cpuinfo lists avx and avx2: %v", useAVX2, want)
	}
	wantFMA := want && slices.Contains(flags, "fma")
	if useAVX2FMA != wantFMA {
		t.Fatalf("useAVX2FMA = %v, but /proc/cpuinfo lists avx, avx2 and fma: %v", useAVX2FMA, wantFMA)
	}
	t.Logf("useAVX2 = %v, useAVX2FMA = %v", useAVX2, useAVX2FMA)
}

// TestSigmoidProbeFollowsMath runs this test binary again with
// GODEBUG=cpu.fma=off, which turns math.Exp's FMA branch off on a CPU that
// has FMA, and requires the child to see useAVX2FMA false and
// SigmoidInPlace still equal to Sigmoid: the AVX2 loop has the bits of that
// branch only.
func TestSigmoidProbeFollowsMath(t *testing.T) {
	if runtime.GOARCH != "amd64" || puregoBuild {
		t.Skipf("the probe runs on amd64 without the purego tag; this is %s/%s", runtime.GOOS, runtime.GOARCH)
	}
	if os.Getenv("VECMATH_FMA_OFF_CHILD") != "" {
		if useAVX2FMA {
			t.Fatal("useAVX2FMA = true while GODEBUG turns math's FMA branch off")
		}
		requireSigmoidInPlace(t, offsetVec(1000, 0, func(j int) float64 { return float64(j-500) / 16 }), "fma off")
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestSigmoidProbeFollowsMath$", "-test.count=1")
	cmd.Env = append(os.Environ(), "GODEBUG=cpu.fma=off", "VECMATH_FMA_OFF_CHILD=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child with GODEBUG=cpu.fma=off: %v\n%s", err, out)
	}
}

// requireAxpy4 asserts Axpy4's contract on decoded fuzz input: the kernel
// leaves in dst what axpy4Generic does, bit for bit (sameBits).
func requireAxpy4(t *testing.T, data []byte) {
	t.Helper()
	vs := fuzzBlockedVecs(data, 6)
	if vs == nil {
		return
	}
	n := len(vs[0])
	coef := [4]float64{1.5, -0.25, 3, 1}
	if n > 0 {
		coef = [4]float64{vs[5][0], vs[5][n/3], vs[5][n/2], vs[5][n-1]}
	}
	// An odd-length input also runs at an odd element offset.
	dst := offsetVec(n, n%2, func(j int) float64 { return vs[0][j] })
	want := Clone(vs[0])
	Axpy4(dst, coef[0], vs[1], coef[1], vs[2], coef[2], vs[3], coef[3], vs[4])
	axpy4Generic(want, coef[0], vs[1], coef[1], vs[2], coef[2], vs[3], coef[3], vs[4])
	for j := range dst {
		if !sameBits(dst[j], want[j]) {
			t.Fatalf("len %d: Axpy4 dst[%d] = %#x, generic %#x", n, j, math.Float64bits(dst[j]), math.Float64bits(want[j]))
		}
	}
}

// FuzzAxpy4 asserts that Axpy4 equals its Go loop on fuzzer-chosen lengths,
// values and coefficients.
func FuzzAxpy4(f *testing.F) {
	f.Add([]byte{3, 0, 2, 4, 130, 140})
	f.Add([]byte{9, 6, 8, 10, 12, 14, 16, 1, 250, 33})
	f.Add([]byte{221, 100, 150, 3, 7})
	f.Add([]byte{5, 4, 6, 2, 0, 10, 12, 8, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		requireAxpy4(t, data)
	})
}

// BenchmarkDotBlocked2 is the micro-cell of the two-row dot: the kernel
// (AVX2 where the CPU has it) beside its Go loop, at fig2's d = 68 and the
// wide workloads' 9,999 features.
func BenchmarkDotBlocked2(b *testing.B) {
	rng := randx.New(1)
	for _, d := range []int{68, 9999} {
		m := randMatrix(rng, 3, d)
		for _, k := range []struct {
			name string
			fn   func(a, b0, b1 []float64) (float64, float64)
		}{{"kernel", DotBlocked2}, {"generic", dotBlocked2Generic}} {
			b.Run(fmt.Sprintf("d=%d/%s", d, k.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					p, q := k.fn(m[0], m[1], m[2])
					benchSink += p + q
				}
			})
		}
	}
}

// BenchmarkAxpy4 is the micro-cell of the four-row accumulate, laid out as
// BenchmarkDotBlocked2.
func BenchmarkAxpy4(b *testing.B) {
	rng := randx.New(1)
	for _, d := range []int{68, 9999} {
		m := randMatrix(rng, 5, d)
		for _, k := range []struct {
			name string
			fn   func(dst []float64, a0 float64, x0 []float64, a1 float64, x1 []float64, a2 float64, x2 []float64, a3 float64, x3 []float64)
		}{{"kernel", Axpy4}, {"generic", axpy4Generic}} {
			b.Run(fmt.Sprintf("d=%d/%s", d, k.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.fn(m[0], 1e-3, m[1], -1e-3, m[2], 2e-3, m[3], -2e-3, m[4])
				}
				benchSink = m[0][d-1]
			})
		}
	}
}

// BenchmarkMinMaxRows is the micro-cell of the sorting network's
// compare-exchange, laid out as BenchmarkDotBlocked2: a row of n = 16's tile
// (tileCols gives 128 columns), a short row and a long one.
func BenchmarkMinMaxRows(b *testing.B) {
	rng := randx.New(1)
	for _, d := range []int{16, 128, 10000} {
		m := randMatrix(rng, 2, d)
		for _, k := range []struct {
			name string
			fn   func(a, b []float64)
		}{{"kernel", minMaxRows}, {"generic", minMaxRowsGeneric}} {
			b.Run(fmt.Sprintf("d=%d/%s", d, k.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.fn(m[0], m[1])
				}
				benchSink = m[1][d-1]
			})
		}
	}
}

// BenchmarkAxpyScale is the micro-cell of Axpy and ScaleInPlace, each beside
// its Go loop, at the fleet workload's d = 11 and the wide workloads' 10⁴.
func BenchmarkAxpyScale(b *testing.B) {
	rng := randx.New(1)
	for _, d := range []int{11, 10000} {
		m := randMatrix(rng, 2, d)
		for _, k := range []struct {
			name  string
			axpy  func(alpha float64, x, dst []float64)
			scale func(s float64, v []float64)
		}{
			{"kernel", func(alpha float64, x, dst []float64) { Axpy(alpha, x, dst) },
				func(s float64, v []float64) { ScaleInPlace(s, v) }},
			{"generic", axpyGeneric, scaleInPlaceGeneric},
		} {
			b.Run(fmt.Sprintf("axpy/d=%d/%s", d, k.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.axpy(1e-3, m[1], m[0])
				}
				benchSink = m[0][d-1]
			})
			b.Run(fmt.Sprintf("scale/d=%d/%s", d, k.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.scale(1, m[0])
				}
				benchSink = m[0][d-1]
			})
		}
	}
}
