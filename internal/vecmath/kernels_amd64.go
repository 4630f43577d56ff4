//go:build !purego

package vecmath

import "math"

// useAVX2 decides, once at package init, whether the kernels run their AVX2
// loops (kernels_amd64.s) or their Go bodies; both give the same bits. The
// loops' callers check the lengths: every slice argument must be as long as
// the first one (p, for sqDist4x2AVX2). The purego build tag leaves this
// file and kernels_amd64.s out, and kernels_generic.go's false constant in.
var useAVX2 = hasAVX2()

// useAVX2FMA decides, once at package init, whether SigmoidInPlace runs its
// AVX2 loop: only where math.Exp itself takes its FMA branch (math's useFMA,
// AVX && FMA), because that loop is a port of the branch and has its bits
// only there. AVX2 here implies AVX with the OS's YMM support. The last
// term asks math itself, since GODEBUG=cpu.fma=off (or cpu.avx=off) turns
// its FMA branch off on a CPU that has FMA: at 0.375 the branch returns
// 0x3ff747a513dbef6b and the unfused one 0x3ff747a513dbef6a.
var useAVX2FMA = useAVX2 && hasFMA() && math.Float64bits(math.Exp(0.375)) == 0x3ff747a513dbef6b

// hasAVX2 reports whether the AVX2 loops may run: CPUID leaf 1 has AVX and
// OSXSAVE (without OSXSAVE, XGETBV faults, so it is checked first), XCR0
// has the XMM and YMM state bits 1 and 2 (the OS saves both), and CPUID
// leaf 7 has AVX2.
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if xgetbv0()&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}

// hasFMA reports whether CPUID leaf 1 has FMA (ECX bit 12), the fused
// multiply-adds VFMADD213PD / VFNMADD231PD.
func hasFMA() bool {
	const fma = 1 << 12
	_, _, c, _ := cpuid(1, 0)
	return c&fma != 0
}

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

func xgetbv0() uint32

//go:noescape
func dotBlocked2AVX2(a, b0, b1 []float64) (p, q float64)

//go:noescape
func sqDist4x2AVX2(out *[8]float64, a0, a1, a2, a3, p, q []float64)

//go:noescape
func axpy4AVX2(d []float64, a0 float64, x0 []float64, a1 float64, x1 []float64,
	a2 float64, x2 []float64, a3 float64, x3 []float64)

//go:noescape
func minMaxRowsAVX2(a, b []float64)

//go:noescape
func axpyAVX2(alpha float64, x, dst []float64)

//go:noescape
func scaleInPlaceAVX2(s float64, v []float64)

//go:noescape
func sigmoidAVX2(z []float64) (done int)
