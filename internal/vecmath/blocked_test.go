package vecmath

import (
	"math"
	"testing"
)

// blockedSpecials are the IEEE values a per-sample score can meet: signed
// zeros, infinities, NaN and the subnormal range.
var blockedSpecials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	math.SmallestNonzeroFloat64, -4 * math.SmallestNonzeroFloat64, 0x1p-1030,
	math.MaxFloat64,
}

// fuzzBlockedVecs decodes k vectors of one length from fuzz bytes: the
// first byte picks the length (0–9, or a wide length past the unrolled
// block), the rest are cycled as values, low bytes mapping to
// blockedSpecials. It returns nil for empty data.
func fuzzBlockedVecs(data []byte, k int) [][]float64 {
	if len(data) == 0 {
		return nil
	}
	n := int(data[0]) % 10
	if data[0] >= 200 {
		n = 1000 + int(data[0])
	}
	vals := data[1:]
	vs := make([][]float64, k)
	for off := range vs {
		v := make([]float64, n)
		for j := range v {
			if len(vals) == 0 {
				v[j] = float64(j%7) - 3
				continue
			}
			b := vals[(off+j*3)%len(vals)]
			if int(b) < 2*len(blockedSpecials) {
				v[j] = blockedSpecials[int(b)/2]
			} else {
				v[j] = float64(int(b)-128) / 7 * math.Pow(10, float64(int(b)%5-2))
			}
		}
		vs[off] = v
	}
	return vs
}

// sameBits reports whether x and y have the same bits, counting any two
// NaNs as equal: Go does not fix which NaN an add of two NaNs propagates
// (the compiler may swap a commutative add's operands), so only the
// NaN-ness of a result is part of a kernel's contract.
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
}

// requireDotBlocked2 asserts DotBlocked2's contract on the decoded input:
// both outputs equal the one-row DotBlocked, bit for bit.
func requireDotBlocked2(t *testing.T, data []byte) {
	t.Helper()
	var a, b0, b1 []float64
	if vs := fuzzBlockedVecs(data, 3); vs != nil {
		a, b0, b1 = vs[0], vs[1], vs[2]
	}
	got0, got1 := DotBlocked2(a, b0, b1)
	want0, want1 := DotBlocked(a, b0), DotBlocked(a, b1)
	if !sameBits(got0, want0) || !sameBits(got1, want1) {
		t.Fatalf("len %d: DotBlocked2 = (%#x, %#x), want DotBlocked's (%#x, %#x)", len(a),
			math.Float64bits(got0), math.Float64bits(got1), math.Float64bits(want0), math.Float64bits(want1))
	}
}

func TestDotBlocked2MatchesDotBlocked(t *testing.T) {
	for _, data := range [][]byte{
		{0},
		{1, 40, 50, 60},
		{5, 0, 2, 4, 6, 8, 10, 12, 14, 16},
		{7, 130, 131, 140, 200, 210, 3, 90},
		{9, 255, 1, 254, 2, 253, 3},
		{201, 17, 100, 133, 250, 77},
		{255, 8, 9, 10, 11},
	} {
		for n := 0; n < 10; n++ {
			data[0] = byte(n)
			requireDotBlocked2(t, data)
		}
		data[0] = 210
		requireDotBlocked2(t, data)
	}
}

// FuzzDotBlocked2 asserts the property of TestDotBlocked2MatchesDotBlocked on
// fuzzer-chosen lengths and values.
func FuzzDotBlocked2(f *testing.F) {
	f.Add([]byte{3, 0, 2, 4, 130, 140})
	f.Add([]byte{8, 6, 8, 10, 12, 14, 16, 1, 250})
	f.Add([]byte{220, 100, 150, 3, 7})
	// A default NaN (from −Inf + Inf in the tail) meets math.NaN() in the
	// final combine.
	f.Add([]byte{57, 48, 48, 3, 0, 2, 130, 48})
	f.Fuzz(func(t *testing.T, data []byte) {
		requireDotBlocked2(t, data)
	})
}

// DotBlocked(x, x) is the squared norm the clipped kernels price when no
// cached ‖x‖² is supplied: it must agree with SqNorm to rounding, stay
// non-negative, and overflow to +Inf rather than to NaN.
func TestDotBlockedSelfIsSqNorm(t *testing.T) {
	for n := 0; n < 40; n++ {
		x := make([]float64, n)
		for j := range x {
			x[j] = math.Sin(float64(3*j+n)) * float64(j%5+1)
		}
		got, want := DotBlocked(x, x), SqNorm(x)
		if got < 0 || !almostEqual(got, want, 1e-12*(1+want)) {
			t.Fatalf("len %d: DotBlocked(x, x) = %v, SqNorm = %v", n, got, want)
		}
	}
	big := []float64{math.MaxFloat64, 1, -math.MaxFloat64, 2, 3}
	if got := DotBlocked(big, big); !math.IsInf(got, 1) {
		t.Fatalf("DotBlocked(x, x) on overflowing x = %v, want +Inf", got)
	}
}
