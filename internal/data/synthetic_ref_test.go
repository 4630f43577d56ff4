package data

import (
	"math"

	"dpbyz/internal/randx"
)

// The generators' per-point loops as they were before the single-pass
// rewrite, kept verbatim as the oracles of synthetic_test.go: a row per
// allocation, a Float64 draw per coordinate with a branch on every ±1
// coordinate, and the norms computed afterwards by New.

func syntheticPhishingRef(cfg SyntheticPhishingConfig) (*Dataset, error) {
	cfg.fillDefaults()
	rng := randx.New(cfg.Seed ^ 0x5048495348)
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

	pts := make([]Point, cfg.N)
	for i := range pts {
		x := make([]float64, cfg.Features)
		for j := range x {
			if j%3 == 0 {
				x[j] = 2*rng.Float64() - 1
			} else if rng.Float64() < 0.5 {
				x[j] = -1
			} else {
				x[j] = 1
			}
		}
		score := bias
		for j := range x {
			score += w[j] * x[j]
		}
		y := 0.0
		if score > 0 {
			y = 1
		}
		if rng.Float64() < cfg.NoiseRate {
			y = 1 - y
		}
		pts[i] = Point{X: x, Y: y}
	}
	return New(pts)
}

func gaussianMeanRef(cfg GaussianMeanConfig) (*Dataset, []float64, error) {
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
	}
	coordSigma := cfg.Sigma / math.Sqrt(float64(cfg.Dim))
	pts := make([]Point, cfg.N)
	for i := range pts {
		x := make([]float64, cfg.Dim)
		rng.NormalVec(x, coordSigma)
		for j := range x {
			x[j] += center[j]
		}
		pts[i] = Point{X: x}
	}
	ds, err := New(pts)
	if err != nil {
		return nil, nil, err
	}
	return ds, center, nil
}

func twoGaussiansRef(cfg TwoGaussiansConfig) (*Dataset, error) {
	rng := randx.New(cfg.Seed ^ 0x32474155)
	pts := make([]Point, cfg.N)
	for i := range pts {
		x := make([]float64, cfg.Dim)
		rng.NormalVec(x, 1)
		y := float64(i % 2)
		if y == 1 {
			x[0] += cfg.Separation / 2
		} else {
			x[0] -= cfg.Separation / 2
		}
		pts[i] = Point{X: x, Y: y}
	}
	return New(pts)
}
