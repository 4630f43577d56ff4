//go:build !purego

package randx

// haveFillRect is true where fillNormal runs the inner-rectangle loop of
// fill_amd64.s. It needs SSE2 only, which every amd64 CPU has, so there is
// no CPUID probe.
const haveFillRect = true

// fillNormalRect runs fillNormal's draw loop from index k: it advances the
// xoshiro state *s one step per candidate and writes dst[k] = sigma·z (plus
// v[k] when v is non-nil, which must then be as long as dst) for every
// candidate z that lies in its strip's inner rectangle. It returns next ==
// len(dst) when the vector is full, or the index next of the first candidate
// that leaves the rectangle, with that candidate x and its strip i, for
// zigOuter to finish. Either way *s holds the state after the last draw.
//
//go:noescape
func fillNormalRect(s *[4]uint64, dst, v []float64, sigma float64, k int) (next int, x float64, i int)
