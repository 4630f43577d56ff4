package data

import (
	"fmt"
	"math"

	"dpbyz/internal/randx"
)

// PhishingFeatures is the feature dimension of the LIBSVM phishing dataset
// the paper trains on; PhishingSize is its total number of points, and
// PhishingTrainSize the paper's train split (§5.1).
const (
	PhishingFeatures  = 68
	PhishingSize      = 11055
	PhishingTrainSize = 8400
)

// SyntheticPhishingConfig parameterizes the synthetic stand-in for the
// phishing dataset.
type SyntheticPhishingConfig struct {
	// N is the number of points (default PhishingSize).
	N int
	// Features is the feature dimension (default PhishingFeatures).
	Features int
	// NoiseRate is the fraction of labels flipped after generation,
	// controlling Bayes error (default 0.05).
	NoiseRate float64
	// Seed drives the deterministic generator.
	Seed uint64
}

func (c *SyntheticPhishingConfig) fillDefaults() {
	if c.N == 0 {
		c.N = PhishingSize
	}
	if c.Features == 0 {
		c.Features = PhishingFeatures
	}
	if c.NoiseRate == 0 {
		c.NoiseRate = 0.05
	}
}

// SyntheticPhishing generates a deterministic binary-classification dataset
// with the same shape as the phishing dataset: N points, Features features
// valued in [-1, 1] (the LIBSVM file is scaled to that range), and a label
// structure that is linearly separable up to NoiseRate label noise. A
// logistic model with d = Features+1 parameters trained on it behaves like
// the paper's task: quick convergence with moderate gradient variance.
//
// The draw contract, which fixes the dataset's bits for a seed: first the
// hidden separator w (Features NormalVec variates), then the bias (one
// Normal), then exactly Features+1 words per point, in point order. With u
// a word's Float64 uniform, word j of a point makes coordinate j — 2u − 1
// when j%3 == 0, else −1 when u < 0.5 and +1 otherwise — and the last word
// is the label-noise draw: the label [w·x + bias > 0] flips when u <
// NoiseRate.
func SyntheticPhishing(cfg SyntheticPhishingConfig) (*Dataset, error) {
	cfg.fillDefaults()
	if cfg.N <= 0 || cfg.Features <= 0 {
		return nil, fmt.Errorf("data: invalid synthetic config %+v", cfg)
	}
	ds, err := newDense(cfg.N, cfg.Features)
	if err != nil {
		return nil, err
	}
	rng := randx.New(cfg.Seed ^ 0x5048495348)
	// A hidden unit-norm "true" separator with a bias term.
	w := make([]float64, cfg.Features)
	rng.NormalVec(w, 1)
	norm := 0.0
	for _, x := range w {
		norm += x * x
	}
	norm = math.Sqrt(norm)
	for i := range w {
		w[i] /= norm
	}
	bias := 0.1 * rng.Normal()

	words := make([]uint64, cfg.Features+1)
	for i := range ds.points {
		rng.Uint64s(words)
		x := ds.points[i].X
		u, w := words[:len(x)], w[:len(x)]
		score, sq := bias, 0.0
		// Whole triples of coordinates (continuous, ±1, ±1) with no branch,
		// then the row's last one or two. Both sums run in coordinate order.
		j := 0
		for ; j+3 <= len(x); j += 3 {
			v0, v1, v2 := 2*unitFloat(u[j])-1, signOne(u[j+1]), signOne(u[j+2])
			x[j], x[j+1], x[j+2] = v0, v1, v2
			score = score + w[j]*v0 + w[j+1]*v1 + w[j+2]*v2
			sq = sq + v0*v0 + v1*v1 + v2*v2
		}
		for ; j < len(x); j++ {
			v := coordinate(j, u[j])
			x[j] = v
			score += w[j] * v
			sq += v * v
		}
		y := 0.0
		if score > 0 {
			y = 1
		}
		if unitFloat(words[len(x)]) < cfg.NoiseRate {
			y = 1 - y
		}
		ds.points[i].Y = y
		ds.xsq[i] = sq
	}
	return ds, nil
}

// coordinate is synthetic phishing coordinate j drawn from word u. Mixture
// mimicking the phishing file: mostly ±1 categorical encodings with some
// continuous coordinates.
func coordinate(j int, u uint64) float64 {
	if j%3 == 0 {
		return 2*unitFloat(u) - 1
	}
	return signOne(u)
}

// unitFloat is randx.Stream.Float64's map of one word to [0, 1).
func unitFloat(u uint64) float64 { return float64(u>>11) / (1 << 53) }

// signOne is −1 when unitFloat(u) < 0.5 — exactly when u's top bit is
// clear — and +1 otherwise: that bit, inverted, as the sign of 1.0, so no
// branch can mispredict on it.
func signOne(u uint64) float64 { return math.Float64frombits(0x3ff0000000000000 | ^u&(1<<63)) }

// newDense returns a dataset of n points of dimension dim, all zero, whose
// rows are windows of one backing array, each capped at dim: one allocation
// for every row. The generators fill each row in place and store its ‖x‖²
// in xsq as they go, so no second pass computes the norms. Each row starts
// at a multiple of 8 floats, so in a backing array past 32 KB (which is
// page aligned) it starts on a 64-byte line, as a row allocated on its own
// does: the gradient kernels' 32-byte loads never straddle two lines.
func newDense(n, dim int) (*Dataset, error) {
	lines := (dim-1)/8 + 1
	if lines > math.MaxInt/8/n {
		return nil, fmt.Errorf("data: %d points of %d features overflow the address space", n, dim)
	}
	stride := 8 * lines
	backing := make([]float64, n*stride)
	pts := make([]Point, n)
	for i := range pts {
		pts[i].X = backing[i*stride : i*stride+dim : i*stride+dim]
	}
	return &Dataset{points: pts, dim: dim, xsq: make([]float64, n)}, nil
}

// GaussianMeanConfig parameterizes the distribution used in Theorem 1's
// lower bound: x ~ N(center, sigma²/d · I_d). Estimating center under DP
// noise exhibits the Θ(d/(T b² ε²)) error rate.
type GaussianMeanConfig struct {
	// N is the number of points to draw.
	N int
	// Dim is the dimension d.
	Dim int
	// Sigma is the σ in the covariance σ²/d · I_d.
	Sigma float64
	// Center is the mean x̄; when nil, a deterministic pseudo-random unit
	// vector scaled by 0.5 is used.
	Center []float64
	// Seed drives the generator.
	Seed uint64
}

// GaussianMean draws a dataset from N(center, sigma²/d I). Labels are unused
// (zero); the mean-estimation model ignores them. It returns the dataset and
// the center that was used.
func GaussianMean(cfg GaussianMeanConfig) (*Dataset, []float64, error) {
	if cfg.N <= 0 || cfg.Dim <= 0 || cfg.Sigma <= 0 {
		return nil, nil, fmt.Errorf("data: invalid Gaussian mean config %+v", cfg)
	}
	rng := randx.New(cfg.Seed ^ 0x4d45414e)
	center := cfg.Center
	if center == nil {
		center = make([]float64, cfg.Dim)
		rng.NormalVec(center, 1)
		var n float64
		for _, x := range center {
			n += x * x
		}
		n = math.Sqrt(n)
		for i := range center {
			center[i] *= 0.5 / n
		}
	} else if len(center) != cfg.Dim {
		return nil, nil, fmt.Errorf("data: center dim %d != %d", len(center), cfg.Dim)
	}
	ds, err := newDense(cfg.N, cfg.Dim)
	if err != nil {
		return nil, nil, err
	}
	coordSigma := cfg.Sigma / math.Sqrt(float64(cfg.Dim))
	for i, p := range ds.points {
		rng.NormalVec(p.X, coordSigma)
		var sq float64
		for j := range p.X {
			p.X[j] += center[j]
			sq += p.X[j] * p.X[j]
		}
		ds.xsq[i] = sq
	}
	return ds, center, nil
}

// TwoGaussiansConfig parameterizes a classic two-cluster classification
// task, used in examples and MLP tests.
type TwoGaussiansConfig struct {
	// N is the total number of points (half per class).
	N int
	// Dim is the feature dimension.
	Dim int
	// Separation is the distance between the two class means.
	Separation float64
	// Seed drives the generator.
	Seed uint64
}

// TwoGaussians draws N points from two unit-covariance Gaussians whose
// means are Separation apart along the first axis, labelled 0 and 1.
func TwoGaussians(cfg TwoGaussiansConfig) (*Dataset, error) {
	if cfg.N < 2 || cfg.Dim <= 0 || cfg.Separation < 0 {
		return nil, fmt.Errorf("data: invalid two-Gaussians config %+v", cfg)
	}
	ds, err := newDense(cfg.N, cfg.Dim)
	if err != nil {
		return nil, err
	}
	rng := randx.New(cfg.Seed ^ 0x32474155)
	for i := range ds.points {
		x := rng.NormalVec(ds.points[i].X, 1)
		y := float64(i % 2)
		if y == 1 {
			x[0] += cfg.Separation / 2
		} else {
			x[0] -= cfg.Separation / 2
		}
		var sq float64
		for _, v := range x {
			sq += v * v
		}
		ds.points[i].Y = y
		ds.xsq[i] = sq
	}
	return ds, nil
}
