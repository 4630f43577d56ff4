package dp

import (
	"fmt"
	"math"
)

// This file converts repeated Gaussian releases into one (ε, δ) bound by
// Rényi differential privacy (RDP), the accounting behind the moments
// accountant of the paper's ref [2] (Abadi et al. 2016). Facts used
// (Mironov 2017):
//   - The Gaussian mechanism with noise multiplier m = σ/Δ satisfies
//     (α, α/(2m²))-RDP for every α > 1.
//   - RDP composes additively: k releases cost (α, k·α/(2m²)).
//   - (α, ρ)-RDP implies (ρ + log(1/δ)/(α−1), δ)-DP for any δ ∈ (0, 1).

// rdpAlphas is the α grid the RDP→DP conversion is optimized over, the grid
// popularized by TensorFlow Privacy.
var rdpAlphas = func() []float64 {
	alphas := []float64{1.25, 1.5, 1.75, 2, 2.25, 2.5, 3, 3.5, 4, 4.5}
	for a := 5.0; a <= 64; a++ {
		alphas = append(alphas, a)
	}
	return append(alphas, 128, 256, 512)
}()

// gaussianRDP is the Rényi divergence bound ρ(α) = k·α/(2m²) of k Gaussian
// releases with noise multiplier m.
func gaussianRDP(multiplier float64, releases int, alpha float64) float64 {
	return float64(releases) * alpha / (2 * multiplier * multiplier)
}

// RDPEpsilon returns the ε of the (ε, δ)-DP bound that releases Gaussian
// releases with noise multiplier σ/Δ satisfy, composed in RDP and converted
// at delta, the best over the α grid. Zero releases spend nothing.
func RDPEpsilon(multiplier float64, releases int, delta float64) (float64, error) {
	if !(multiplier > 0) {
		return 0, fmt.Errorf("dp: non-positive noise multiplier %v", multiplier)
	}
	if releases < 0 {
		return 0, fmt.Errorf("dp: negative release count %d", releases)
	}
	if !(delta > 0 && delta < 1) {
		return 0, fmt.Errorf("%w: got %v", ErrBadDelta, delta)
	}
	if releases == 0 {
		return 0, nil
	}
	best := math.Inf(1)
	logDelta := math.Log(1 / delta)
	for _, alpha := range rdpAlphas {
		best = min(best, gaussianRDP(multiplier, releases, alpha)+logDelta/(alpha-1))
	}
	return best, nil
}
