// Package randx is the deterministic randomness substrate for the whole
// repository. Every stochastic component (batch sampling, DP noise, attack
// noise, dataset synthesis) draws from an *randx.Stream so that a run is a
// pure function of its integer seed, matching the paper's "seeds 1 to 5"
// reproducibility protocol.
//
// The generator is xoshiro256++ seeded through SplitMix64, the combination
// recommended by the xoshiro authors. Streams can be split hierarchically
// (per worker, per purpose) with Derive, giving independent sequences
// without any shared mutable state, so concurrent workers never contend.
//
// # Stream compatibility
//
// Normal (and everything layered on it: NormalVec, the dp mechanisms, the
// synthetic dataset generators) uses a 256-strip ziggurat sampler. Earlier
// revisions used the Box-Muller transform, which consumes the underlying
// uniform stream differently, so Gaussian draws — and therefore entire
// simulation trajectories — are NOT bit-compatible across that switch.
// Runs remain a pure function of their seed within any one build; only
// cross-revision bit-identity was given up.
//
// Bulk and scalar draws are the same variates in the same order: NormalVec
// and AddNormalVec run the ziggurat of Normal (one xoshiro step, one strip
// test, one wedge/tail path, shared by both) with the stream state held in
// locals, so filling a vector leaves every value and the stream position
// exactly where len(dst) Normal calls would.
//
// On amd64 the bulk fill's common path is assembly (fill_amd64.s; the
// purego build tag leaves it out and runs the Go loop everywhere): the
// stream words stay in four registers and each candidate is one xoshiro
// step, one exact integer-to-double conversion, a multiply by the power of
// two 1/2⁵² (exact), one multiply by the strip width, a compare and
// sigma·z (+ v[k]) — each the Go expression's own operation with its one
// rounding, and no fused multiply-add, so the variates and the final
// stream position are those of the Go loop, fillNormalGeneric, bit for
// bit. The assembly file's header gives the argument step by step.
//
//dpbyz:deterministic
package randx

import "math"

// Stream is a deterministic pseudo-random stream. It is NOT safe for
// concurrent use; derive one stream per goroutine instead.
type Stream struct {
	s [4]uint64
	// sampleKeys/sampleGen back Sample's stream-owned open-addressing set,
	// so steady-state batch draws never allocate. A slot is occupied only
	// when its generation stamp matches sampleEpoch, which makes clearing
	// the set between draws a single counter increment instead of a memset.
	sampleKeys  []int
	sampleStamp []uint64
	sampleEpoch uint64
}

// splitMix64 advances x by the SplitMix64 step and returns the mixed output.
func splitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a stream seeded from the given seed. Distinct seeds give
// statistically independent streams.
func New(seed uint64) *Stream {
	var st Stream
	x := seed
	for i := range st.s {
		st.s[i] = splitMix64(&x)
	}
	// xoshiro must not start from the all-zero state; SplitMix64 makes this
	// astronomically unlikely but guard anyway.
	if st.s[0]|st.s[1]|st.s[2]|st.s[3] == 0 {
		st.s[0] = 0x9e3779b97f4a7c15
	}
	return &st
}

// Derive returns a new independent stream identified by the given labels,
// e.g. Derive(workerID, purposeDPNoise). The parent stream is not advanced,
// so derivation order does not matter.
func (r *Stream) Derive(labels ...uint64) *Stream {
	x := r.s[0] ^ rotl(r.s[3], 7)
	for _, l := range labels {
		x ^= splitMix64(&x) ^ (l * 0x2545f4914f6cdd1d)
		_ = splitMix64(&x)
	}
	return New(x)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// StreamState is the serializable state of a Stream: the xoshiro256++ word
// state. It deliberately excludes Sample's membership table, which is a
// pure performance cache — the draw sequence does not depend on it — so a
// restored stream produces bit-identical draws without carrying the scratch.
type StreamState struct {
	S [4]uint64 `json:"s"`
}

// State snapshots the stream. Restoring the snapshot with SetState (or
// Restore) yields a stream whose future draws are bit-identical to this
// stream's.
func (r *Stream) State() StreamState {
	return StreamState{S: r.s}
}

// SetState overwrites the stream's generator state with a snapshot taken by
// State. The sample scratch is left alone: it is regenerated on demand and
// never influences the drawn values.
func (r *Stream) SetState(st StreamState) {
	r.s = st.S
}

// Uint64 returns the next 64 uniformly random bits (xoshiro256++).
//
//dpbyz:hotpath
func (r *Stream) Uint64() uint64 {
	res, s0, s1, s2, s3 := xoshiro(r.s[0], r.s[1], r.s[2], r.s[3])
	r.s = [4]uint64{s0, s1, s2, s3}
	return res
}

// Uint64s fills dst with the next len(dst) words of the stream — the values,
// and the final stream position, of len(dst) Uint64 calls — and returns dst.
// The state stays in four locals for the whole fill, as in fillNormal.
//
//dpbyz:hotpath
func (r *Stream) Uint64s(dst []uint64) []uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for k := range dst {
		dst[k], s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	return dst
}

// xoshiro is the one xoshiro256++ step: it returns the output for state
// (s0, s1, s2, s3) and the advanced state. The words travel by value so that
// a bulk loop (fillNormal) keeps them in registers across draws instead of
// round-tripping them through the Stream.
//
//dpbyz:hotpath
func xoshiro(s0, s1, s2, s3 uint64) (res, n0, n1, n2, n3 uint64) {
	res = rotl(s0+s3, 23) + s0
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	return res, s0, s1, s2, rotl(s3, 45)
}

// Float64 returns a uniform float64 in [0, 1).
//
//dpbyz:hotpath
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics when n <= 0.
//
//dpbyz:hotpath
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("randx: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method, unbiased.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	lo = a * b
	hi = aHi*bHi + t>>32 + (t&mask+aLo*bHi)>>32
	return hi, lo
}

// PermInto fills p with a uniformly random permutation of [0, len(p)) and
// returns p. It draws the same variates as Perm, without allocating.
//
//dpbyz:hotpath
func (r *Stream) PermInto(p []int) []int {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Stream) Perm(n int) []int {
	return r.PermInto(make([]int, n))
}

// Ziggurat tables for the standard normal, following Marsaglia & Tsang
// (2000) with 256 strips of equal area zigV and rightmost edge zigR. The
// tables are built deterministically at init, so every build agrees on them.
//
// zigX[i] holds the strip x-edges in decreasing order: zigX[1] = R down to
// zigX[zigStrips] = 0, with zigX[0] = V/f(R) the widened base strip that
// also covers the tail mass. zigY[i] = f(zigX[i]) = exp(-zigX[i]²/2) are the
// corresponding heights, zigY[zigStrips] = f(0) = 1.
const (
	zigStrips = 256
	zigR      = 3.6541528853610088
	zigV      = 0.00492867323399
)

var (
	zigX [zigStrips + 1]float64
	zigY [zigStrips + 1]float64
)

func init() {
	f := math.Exp(-0.5 * zigR * zigR)
	zigX[0] = zigV / f
	zigX[1] = zigR
	zigY[0] = f
	zigY[1] = f
	for i := 2; i < zigStrips; i++ {
		zigY[i] = zigY[i-1] + zigV/zigX[i-1]
		zigX[i] = math.Sqrt(-2 * math.Log(zigY[i]))
	}
	zigX[zigStrips] = 0
	zigY[zigStrips] = 1
}

// Normal returns a standard Gaussian variate via the ziggurat method: the
// common case is one uniform draw, a table lookup and a multiply, versus
// Box-Muller's log/sqrt/sin/cos per pair. See the package comment for the
// stream-compatibility consequences.
//
//dpbyz:hotpath
func (r *Stream) Normal() float64 {
	for {
		x, i, inside := zigStrip(r.Uint64())
		if inside {
			return x
		}
		if x, ok := r.zigOuter(x, i); ok {
			return x
		}
	}
}

// zigStrip maps one 64-bit draw to its ziggurat candidate: the strip index
// i (low 8 bits), x uniform across strip i's width, and whether x lies in
// the strip's inner rectangle and is accepted outright (~98.8% of draws).
//
//dpbyz:hotpath
func zigStrip(u uint64) (x float64, i int, inside bool) {
	i = int(u & 0xFF)
	// Bits 11..63 as a signed 53-bit integer give a uniform in [-1, 1);
	// the low bits used for the strip index do not overlap.
	x = float64(int64(u)>>11) * (1.0 / (1 << 52)) * zigX[i]
	return x, i, math.Abs(x) < zigX[i+1]
}

// zigOuter finishes a candidate zigStrip did not accept: the base strip
// (i == 0) samples the tail, any other strip runs the wedge test. ok is false
// when the wedge rejects x and the caller must draw a fresh candidate.
//
//dpbyz:hotpath
func (r *Stream) zigOuter(x float64, i int) (float64, bool) {
	if i == 0 {
		return r.normalTail(x < 0), true
	}
	// Wedge: accept with probability proportional to the density above
	// the inner rectangle.
	return x, zigY[i]+r.Float64()*(zigY[i+1]-zigY[i]) < math.Exp(-0.5*x*x)
}

// normalTail samples from the Gaussian tail beyond zigR (Marsaglia's
// exponential-rejection tail method).
//
//dpbyz:hotpath
func (r *Stream) normalTail(neg bool) float64 {
	for {
		u1 := r.Float64()
		for u1 == 0 {
			u1 = r.Float64()
		}
		u2 := r.Float64()
		for u2 == 0 {
			u2 = r.Float64()
		}
		x := -math.Log(u1) * (1 / zigR)
		if -2*math.Log(u2) >= x*x {
			if neg {
				return -(zigR + x)
			}
			return zigR + x
		}
	}
}

// NormalVec fills dst with i.i.d. N(0, sigma^2) variates and returns dst.
//
//dpbyz:hotpath
func (r *Stream) NormalVec(dst []float64, sigma float64) []float64 {
	r.fillNormal(dst, nil, sigma)
	return dst
}

// AddNormalVec writes v[i] + sigma·N(0, 1) into dst[i] for every i of v and
// returns dst; dst may alias v and must be at least as long. It draws the
// variates len(v) Normal calls would, in the same order.
//
//dpbyz:hotpath
func (r *Stream) AddNormalVec(dst, v []float64, sigma float64) []float64 {
	r.fillNormal(dst[:len(v)], v, sigma)
	return dst
}

// fillNormal is the bulk ziggurat: dst[k] = sigma·z_k, plus v[k] when v is
// non-nil, where z_k is the k-th variate Normal would return. On amd64 the
// inner-rectangle loop is fillNormalRect (fill_amd64.s), which returns here
// only for a candidate that leaves its rectangle; zigOuter finishes that
// one, and the loop resumes at the same k. Elsewhere the whole fill is
// fillNormalGeneric. Both draw the same variates in the same order.
//
//dpbyz:hotpath
func (r *Stream) fillNormal(dst, v []float64, sigma float64) {
	if !haveFillRect {
		r.fillNormalGeneric(dst, v, sigma)
		return
	}
	if v != nil {
		v = v[:len(dst)]
	}
	for k := 0; ; {
		next, x, i := fillNormalRect(&r.s, dst, v, sigma, k)
		if next == len(dst) {
			return
		}
		k = next
		if z, ok := r.zigOuter(x, i); ok {
			if v != nil {
				dst[k] = v[k] + sigma*z
			} else {
				dst[k] = sigma * z
			}
			k++
		}
	}
}

// fillNormalGeneric is fillNormal's loop in Go. The stream state lives in
// four local words for the whole vector — a Normal call per variate would
// store it and reload it, a serial chain through memory — and is written
// back only around the rare wedge and tail paths (zigOuter draws from r)
// and once at the end.
//
//dpbyz:hotpath
func (r *Stream) fillNormalGeneric(dst, v []float64, sigma float64) {
	if v != nil {
		v = v[:len(dst)]
	}
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for k := range dst {
		var z float64
		for {
			var u uint64
			u, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
			x, i, inside := zigStrip(u)
			if inside {
				z = x
				break
			}
			r.s = [4]uint64{s0, s1, s2, s3}
			x, ok := r.zigOuter(x, i)
			s0, s1, s2, s3 = r.s[0], r.s[1], r.s[2], r.s[3]
			if ok {
				z = x
				break
			}
		}
		if v != nil {
			dst[k] = v[k] + sigma*z
		} else {
			dst[k] = sigma * z
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// Laplace returns a zero-mean Laplace variate with scale b, via the inverse
// CDF: X = -b * sgn(U) * ln(1 - 2|U|) for U uniform on (-1/2, 1/2).
//
//dpbyz:hotpath
func (r *Stream) Laplace(b float64) float64 {
	u := r.Float64()
	for u == 0 {
		// U = -1/2 exactly is ln(0) = -Inf; every other draw keeps its
		// stream position.
		u = r.Float64()
	}
	u -= 0.5
	if u >= 0 {
		return -b * math.Log(1-2*u)
	}
	return b * math.Log(1+2*u)
}

// Sample fills idx with a uniform sample WITHOUT replacement from [0, n).
// It panics when len(idx) > n. The membership set lives on the stream, so
// steady-state draws (the per-step batch sampling of every worker) are
// allocation-free; the drawn variates are identical to the original
// map-backed implementation.
//
//dpbyz:hotpath
func (r *Stream) Sample(idx []int, n int) {
	k := len(idx)
	if k > n {
		panic("randx: sample size exceeds population")
	}
	if k == 0 {
		return
	}
	r.ensureSampleTab(k)
	keys, stamp := r.sampleKeys, r.sampleStamp
	mask := len(keys) - 1
	r.sampleEpoch++
	epoch := r.sampleEpoch
	// Floyd's algorithm: O(k) time, O(k) extra space.
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		// Probe for t; if present, Floyd's replaces it with j (which cannot
		// be present yet). Either way the probed key is inserted at the
		// first free slot of its own probe chain.
		key := t
		s := sampleSlot(key, mask)
		for stamp[s] == epoch {
			if keys[s] == key {
				key = j
				s = sampleSlot(key, mask)
				continue
			}
			s = (s + 1) & mask
		}
		keys[s] = key
		stamp[s] = epoch
		idx[j-(n-k)] = key
	}
}

// ensureSampleTab sizes the stream's membership table for k entries at a
// load factor of at most one half.
func (r *Stream) ensureSampleTab(k int) {
	size := 4
	for size < 2*k {
		size <<= 1
	}
	if cap(r.sampleKeys) < size {
		r.sampleKeys = make([]int, size)
		r.sampleStamp = make([]uint64, size)
		r.sampleEpoch = 0
	}
	r.sampleKeys = r.sampleKeys[:size]
	r.sampleStamp = r.sampleStamp[:size]
}

// sampleSlot mixes a key into a starting probe slot.
func sampleSlot(key, mask int) int {
	h := uint64(key) * 0x9e3779b97f4a7c15
	return int(h>>33) & mask
}
