//go:build !amd64 || purego

package vecmath

// Without amd64, or under the purego build tag (the Go ecosystem's "no
// assembly" convention), there are no AVX2 loops and the kernels run their
// Go bodies. The stubs only satisfy the compiler: with useAVX2 a false
// constant, no call to them is compiled.

const useAVX2 = false

func dotBlocked2AVX2(a, b0, b1 []float64) (p, q float64) { panic("vecmath: no AVX2 loops") }

func sqDist4x2AVX2(out *[8]float64, a0, a1, a2, a3, p, q []float64) {
	panic("vecmath: no AVX2 loops")
}

func axpy4AVX2(d []float64, a0 float64, x0 []float64, a1 float64, x1 []float64,
	a2 float64, x2 []float64, a3 float64, x3 []float64) {
	panic("vecmath: no AVX2 loops")
}

func minMaxRowsAVX2(a, b []float64) { panic("vecmath: no AVX2 loops") }

func axpyAVX2(alpha float64, x, dst []float64) { panic("vecmath: no AVX2 loops") }

func scaleInPlaceAVX2(s float64, v []float64) { panic("vecmath: no AVX2 loops") }
