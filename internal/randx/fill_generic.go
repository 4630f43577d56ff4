//go:build !amd64 || purego

package randx

// Without amd64, or under the purego build tag, there is no assembly loop
// and fillNormal runs fillNormalGeneric. The stub only satisfies the
// compiler: with haveFillRect a false constant, no call to it is compiled.

const haveFillRect = false

func fillNormalRect(s *[4]uint64, dst, v []float64, sigma float64, k int) (next int, x float64, i int) {
	panic("randx: no assembly fill loop")
}
