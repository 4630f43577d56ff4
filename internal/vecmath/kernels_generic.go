//go:build !amd64

package vecmath

// Without the amd64 SSE2 loops, the kernels run their Go bodies.

func dotBlocked2Loop(a, b0, b1 []float64) (p, q float64) {
	return dotBlocked2Generic(a, b0, b1)
}

func sqDist4x2Loop(out *[8]float64, a0, a1, a2, a3, p, q []float64) {
	sqDist4x2Generic(out, a0, a1, a2, a3, p, q)
}

func axpy4Loop(d []float64, a0 float64, x0 []float64, a1 float64, x1 []float64,
	a2 float64, x2 []float64, a3 float64, x3 []float64) {
	axpy4Generic(d, a0, x0, a1, x1, a2, x2, a3, x3)
}

func minMaxRowsLoop(a, b []float64) {
	minMaxRowsGeneric(a, b)
}
