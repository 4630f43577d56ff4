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

// The empirical verification of the VN-ratio condition (Eq. 8) measures the
// DP-adjusted VN ratio of real honest gradients over a grid of batch sizes
// and reports, per GAR, whether the sufficient resilience condition
// ratio <= k_F(n, f) holds. This is the measurement that connects the
// paper's analytical Table 1 to its Figs 2–4. It runs at the paper's (n, f),
// (ε, δ) and G_max; the settings below are its own.
var vnBatches = []int{10, 50, 100, 500, 2000}

const (
	// vnSamples is how many honest gradients one measurement draws.
	vnSamples = 64
	// vnDatasetSize is the synthetic phishing task's size.
	vnDatasetSize = 4000
)

// RunVNEmpirical measures the DP-adjusted VN ratio across the batch-size
// grid at the model's initial parameters (where the paper's condition is
// hardest: the gradient norm is largest early and the ratio only worsens
// as ∥∇Q∥ shrinks near convergence, so this is the optimistic measurement).
// Its table has one row per batch size: the clear and DP-adjusted ratios,
// then, per rule with an analytical k_F that admits (n, f), whether the
// condition holds under DP.
func RunVNEmpirical(ctx context.Context) (Table, error) {
	t := Table{
		Title:   "Empirical DP-adjusted VN ratio vs k_F(n, f) (Eq. 8)",
		Columns: []Column{{"batch", 8, "%-*d"}, {"vn-clear", 14, "%*.5g"}, {"vn-dp", 14, "%*.5g"}},
	}
	ds, err := data.SyntheticPhishing(data.SyntheticPhishingConfig{
		N: vnDatasetSize, Features: data.PhishingFeatures, Seed: 1,
	})
	if err != nil {
		return Table{}, fmt.Errorf("experiments: vn dataset: %w", err)
	}
	m, err := model.NewLogisticMSE(data.PhishingFeatures)
	if err != nil {
		return Table{}, err
	}
	var rules []gar.GAR
	for _, name := range gar.ResilientNames() {
		g, err := gar.New(name, PaperWorkers, PaperByzantine)
		if err != nil || g.KF() <= 0 {
			continue // (n, f) constraint not met, or no analytical bound (centeredclip)
		}
		rules = append(rules, g)
		t.Columns = append(t.Columns, Column{name, 12, "%*v"})
	}
	budget := dp.Budget{Epsilon: PaperEpsilon, Delta: PaperDelta}
	w := make([]float64, m.Dim())

	rng := randx.New(0x564e)
	for _, b := range vnBatches {
		if err := ctx.Err(); err != nil {
			return Table{}, err
		}
		batcher, err := data.NewBatcher(ds, b, rng.Derive(uint64(b)))
		if err != nil {
			return Table{}, err
		}
		sigma, err := dp.NoiseSigmaForGradient(PaperClipNorm, b, budget)
		if err != nil {
			return Table{}, err
		}
		grads := make([][]float64, vnSamples)
		buf := make([]float64, m.Dim())
		for i := range grads {
			g := make([]float64, m.Dim())
			model.ClippedGradient(m, g, buf, w, batcher.Next(), PaperClipNorm)
			grads[i] = g
		}
		clear, err := gar.EmpiricalVNRatio(grads)
		if err != nil {
			return Table{}, err
		}
		noisy, err := gar.DPAdjustedVNRatio(grads, sigma*sigma)
		if err != nil {
			return Table{}, err
		}
		row := []any{b, clear, noisy}
		for _, g := range rules {
			row = append(row, gar.VNConditionHolds(g, noisy))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
