package experiments

import (
	"context"
	"fmt"

	"dpbyz/internal/data"
	"dpbyz/internal/dp"
	"dpbyz/internal/gar"
	"dpbyz/internal/model"
	"dpbyz/internal/randx"
)

// VNEmpiricalSpec configures the empirical verification of the VN-ratio
// condition (Eq. 8): for a grid of batch sizes it measures the DP-adjusted
// VN ratio of real honest gradients and reports, per GAR, whether the
// sufficient resilience condition ratio <= k_F(n, f) holds. This is the
// measurement that connects the paper's analytical Table 1 to its Figs 2–4.
type VNEmpiricalSpec struct {
	// Workers and Byzantine fix (n, f) (defaults 11, 5).
	Workers   int
	Byzantine int
	// BatchSizes is the b grid (default {10, 50, 100, 500, 2000}).
	BatchSizes []int
	// Epsilon/Delta form the per-step budget (defaults 0.2 / 1e-6).
	Epsilon float64
	Delta   float64
	// Gmax is the clipping bound (default 1e-2).
	Gmax float64
	// Samples is how many honest gradients are drawn per measurement
	// (default 64).
	Samples int
	// DatasetSize/Features shape the task (defaults 4000 / 68).
	DatasetSize int
	Features    int
	// Seed drives the measurement.
	Seed uint64
}

func (s *VNEmpiricalSpec) fillDefaults() {
	if s.Workers == 0 {
		s.Workers = PaperWorkers
	}
	if s.Byzantine == 0 {
		s.Byzantine = PaperByzantine
	}
	if len(s.BatchSizes) == 0 {
		s.BatchSizes = []int{10, 50, 100, 500, 2000}
	}
	if s.Epsilon == 0 {
		s.Epsilon = PaperEpsilon
	}
	if s.Delta == 0 {
		s.Delta = PaperDelta
	}
	if s.Gmax == 0 {
		s.Gmax = PaperClipNorm
	}
	if s.Samples == 0 {
		s.Samples = 64
	}
	if s.DatasetSize == 0 {
		s.DatasetSize = 4000
	}
	if s.Features == 0 {
		s.Features = data.PhishingFeatures
	}
}

// VNEmpiricalPoint is one batch size's measurement.
type VNEmpiricalPoint struct {
	// BatchSize is b.
	BatchSize int
	// RatioClear is the empirical VN ratio without DP noise.
	RatioClear float64
	// RatioDP is the DP-adjusted empirical VN ratio (Eq. 8's left side).
	RatioDP float64
	// Holds maps each admissible GAR name to whether ratio <= k_F under DP.
	Holds map[string]bool
}

// RunVNEmpirical measures the DP-adjusted VN ratio across the batch-size
// grid at the model's initial parameters (where the paper's condition is
// hardest: the gradient norm is largest early and the ratio only worsens
// as ∥∇Q∥ shrinks near convergence, so this is the optimistic measurement).
func RunVNEmpirical(ctx context.Context, spec VNEmpiricalSpec) ([]VNEmpiricalPoint, error) {
	spec.fillDefaults()
	ds, err := data.SyntheticPhishing(data.SyntheticPhishingConfig{
		N: spec.DatasetSize, Features: spec.Features, Seed: spec.Seed + 1,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: vn dataset: %w", err)
	}
	m, err := model.NewLogisticMSE(spec.Features)
	if err != nil {
		return nil, err
	}
	rules := make(map[string]gar.GAR)
	for _, name := range gar.ResilientNames() {
		g, err := gar.New(name, spec.Workers, spec.Byzantine)
		if err != nil {
			continue // (n, f) constraint not met
		}
		if g.KF() <= 0 {
			continue // no analytical bound (e.g. centeredclip)
		}
		rules[name] = g
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("experiments: no rule admits n=%d f=%d",
			spec.Workers, spec.Byzantine)
	}
	budget := dp.Budget{Epsilon: spec.Epsilon, Delta: spec.Delta}
	w := make([]float64, m.Dim())

	out := make([]VNEmpiricalPoint, 0, len(spec.BatchSizes))
	rng := randx.New(spec.Seed ^ 0x564e)
	for _, b := range spec.BatchSizes {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		default:
		}
		batcher, err := data.NewBatcher(ds, b, rng.Derive(uint64(b)))
		if err != nil {
			return nil, err
		}
		sigma, err := dp.NoiseSigmaForGradient(spec.Gmax, b, budget)
		if err != nil {
			return nil, err
		}
		grads := make([][]float64, spec.Samples)
		buf := make([]float64, m.Dim())
		for i := range grads {
			g := make([]float64, m.Dim())
			model.ClippedGradient(m, g, buf, w, batcher.Next(), spec.Gmax)
			grads[i] = g
		}
		clear, err := gar.EmpiricalVNRatio(grads)
		if err != nil {
			return nil, err
		}
		noisy, err := gar.DPAdjustedVNRatio(grads, sigma*sigma)
		if err != nil {
			return nil, err
		}
		holds := make(map[string]bool, len(rules))
		for name, g := range rules {
			holds[name] = gar.VNConditionHolds(g, noisy)
		}
		out = append(out, VNEmpiricalPoint{
			BatchSize:  b,
			RatioClear: clear,
			RatioDP:    noisy,
			Holds:      holds,
		})
	}
	return out, nil
}
