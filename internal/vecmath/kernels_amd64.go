package vecmath

// The SSE2 loops in kernels_amd64.s. Callers check the lengths: every slice
// argument must be as long as the first one (p, for sqDist4x2Loop).

//go:noescape
func dotBlocked2Loop(a, b0, b1 []float64) (p, q float64)

//go:noescape
func sqDist4x2Loop(out *[8]float64, a0, a1, a2, a3, p, q []float64)

//go:noescape
func axpy4Loop(d []float64, a0 float64, x0 []float64, a1 float64, x1 []float64,
	a2 float64, x2 []float64, a3 float64, x3 []float64)

//go:noescape
func minMaxRowsLoop(a, b []float64)
