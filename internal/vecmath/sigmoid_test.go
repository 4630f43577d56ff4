package vecmath

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"dpbyz/internal/randx"
)

func TestSigmoid(t *testing.T) {
	if got := Sigmoid(0); got != 0.5 {
		t.Errorf("Sigmoid(0) = %v", got)
	}
	if got := Sigmoid(1000); got != 1 {
		t.Errorf("Sigmoid(1000) = %v", got)
	}
	if got := Sigmoid(-1000); got != 0 {
		t.Errorf("Sigmoid(-1000) = %v", got)
	}
	// Symmetry: Sigmoid(-z) = 1 - Sigmoid(z).
	for _, z := range []float64{0.1, 1, 5, 20} {
		if diff := Sigmoid(-z) - (1 - Sigmoid(z)); math.Abs(diff) > 1e-12 {
			t.Errorf("Sigmoid symmetry broken at %v: %v", z, diff)
		}
	}
}

// sigmoidSpecials are the values at which math.Exp leaves its main path, or
// SigmoidInPlace its vector loop: signed zeros, infinities, NaN, the
// smallest subnormal, the loop's ±708 bound and its neighbours, the edge of
// math.Exp's overflow test (±709.78), the point below which e^−|z| is 0
// (±745) and ±MaxFloat64.
var sigmoidSpecials = func() []float64 {
	vs := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, v := range []float64{0, math.SmallestNonzeroFloat64, 708, math.Nextafter(708, 0),
		math.Nextafter(708, 709), 7.09782712893384e+02, 745, math.MaxFloat64} {
		vs = append(vs, v, -v)
	}
	return vs
}()

// requireSigmoidInPlace runs SigmoidInPlace on a copy of z and fails on the
// first element whose bits differ from Sigmoid's (NaN-ness only for a NaN,
// sameBits).
func requireSigmoidInPlace(t *testing.T, z []float64, label string) {
	t.Helper()
	got := offsetVec(len(z), len(z)%4, func(j int) float64 { return z[j] })
	SigmoidInPlace(got)
	for j, x := range z {
		if want := Sigmoid(x); !sameBits(got[j], want) {
			t.Fatalf("%s: SigmoidInPlace(%v = %#x) at [%d] = %#x, Sigmoid %#x", label, x, math.Float64bits(x), j,
				math.Float64bits(got[j]), math.Float64bits(want))
		}
	}
}

// TestSigmoidInPlaceMatchesSigmoid is the differential test of the batch
// link against its scalar body, bit for bit: 2²² values (normals at ten
// scales from 10⁻⁶ to 800, uniforms on ±745 and raw bit patterns), every
// special value at every position of two quads and a tail, and every length
// from 0 to 70 at element offsets 0 to 3 with a quad the vector loop must
// leave to the scalar body in the middle.
func TestSigmoidInPlaceMatchesSigmoid(t *testing.T) {
	rng := randx.New(49)
	const chunk = 1 << 18
	z := make([]float64, chunk)
	scales := []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10, 100, 800}
	for _, s := range scales {
		for j := range z {
			z[j] = s * rng.Normal()
		}
		requireSigmoidInPlace(t, z, fmt.Sprintf("normal scale %g", s))
	}
	for range 4 {
		for j := range z {
			z[j] = 745 * (2*rng.Float64() - 1)
		}
		requireSigmoidInPlace(t, z, "uniform ±745")
	}
	for range 2 {
		for j := range z {
			z[j] = math.Float64frombits(rng.Uint64())
		}
		requireSigmoidInPlace(t, z, "raw bits")
	}

	requireSigmoidInPlace(t, sigmoidSpecials, "specials")
	for _, s := range sigmoidSpecials {
		for pos := range 9 {
			v := offsetVec(9, 0, func(j int) float64 { return rng.Normal() })
			v[pos] = s
			requireSigmoidInPlace(t, v, fmt.Sprintf("special %v at %d", s, pos))
		}
	}

	for n := 0; n <= 70; n++ {
		for off := range 4 {
			v := offsetVec(n, off, func(j int) float64 { return 10 * rng.Normal() })
			label := fmt.Sprintf("n=%d offset=%d", n, off)
			requireSigmoidInPlace(t, v, label)
			if n > 0 {
				v[n/2] = sigmoidSpecials[(n+off)%len(sigmoidSpecials)]
				requireSigmoidInPlace(t, v, label+" fallback")
			}
		}
	}
}

// FuzzSigmoid asserts that SigmoidInPlace equals Sigmoid on fuzzer-chosen
// bit patterns, eight bytes per value, at the offset of the length mod 4.
func FuzzSigmoid(f *testing.F) {
	seed := func(vs ...float64) []byte {
		b := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(0.5, -3, 20, -40, 1e-9))
	f.Add(seed(700, -708, 708.5, math.NaN(), 1, 2, 3, 4, -745))
	f.Add(seed(math.Copysign(0, -1), math.Inf(1), math.SmallestNonzeroFloat64, -1e300))
	f.Fuzz(func(t *testing.T, data []byte) {
		z := make([]float64, len(data)/8)
		for j := range z {
			z[j] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*j:]))
		}
		requireSigmoidInPlace(t, z, fmt.Sprintf("len %d", len(z)))
	})
}

// BenchmarkSigmoid is the micro-cell of the batch link: SigmoidInPlace (AVX2
// where math.Exp takes its FMA branch) beside a loop of Sigmoid, at the
// fleet workload's batch of 10 and fig2's 50, on scores drawn from N(0, 9).
func BenchmarkSigmoid(b *testing.B) {
	rng := randx.New(1)
	for _, n := range []int{10, 50} {
		src := make([]float64, n)
		rng.NormalVec(src, 3)
		z := make([]float64, n)
		b.Run(fmt.Sprintf("n=%d/kernel", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(z, src)
				SigmoidInPlace(z)
			}
			benchSink = z[n-1]
		})
		b.Run(fmt.Sprintf("n=%d/scalar", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j, x := range src {
					z[j] = Sigmoid(x)
				}
			}
			benchSink = z[n-1]
		})
	}
}
