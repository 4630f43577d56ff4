package vecmath

import "math"

// Sigmoid is the numerically stable logistic function 1/(1 + e^−z): it
// calls math.Exp only on −|z|, which never overflows.
//
//dpbyz:hotpath
func Sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// SigmoidInPlace replaces every z[i] with Sigmoid(z[i]), bit for bit. Where
// math.Exp takes its FMA branch (useAVX2FMA), sigmoidAVX2 evaluates four
// values per step, each lane performing Sigmoid's own sequence of IEEE
// operations; it stops before a quad that holds a NaN or a |z| above 708
// (math.Exp's special and subnormal paths) and before a tail of fewer than
// four, and the loop below finishes that quad or tail with Sigmoid and
// resumes.
//
//dpbyz:hotpath
func SigmoidInPlace(z []float64) {
	for i := 0; i < len(z); {
		if useAVX2FMA {
			i += sigmoidAVX2(z[i:])
		}
		for end := min(i+4, len(z)); i < end; i++ {
			z[i] = Sigmoid(z[i])
		}
	}
}
