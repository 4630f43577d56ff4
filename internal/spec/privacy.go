package spec

import (
	"errors"

	"dpbyz/internal/dp"
	"dpbyz/internal/round"
)

// Privacy is the differential-privacy spend of a run: the (ε, δ) bound on
// what one honest worker's Releases noisy submissions reveal about its
// training data, and the Method that derived it. Method is one of:
//
//   - "rdp": a Gaussian mechanism, composed in Rényi DP over the α grid of
//     dp.RDPEpsilon with noise multiplier σ/(2·ClipNorm/b), and reported at
//     the Spec's own per-step δ;
//   - "basic": a Laplace mechanism, pure ε composed linearly (Releases·ε,
//     δ = 0);
//   - "not covered": noise whose release the ledger cannot bound, so no
//     number is reported. That is the paper's ordering (worker momentum
//     before the noise: the clip bounds the momentum state, so a release
//     moves by up to 2·ClipNorm, not the calibrated 2·ClipNorm/b), a run
//     without clipping, a Laplace scale set directly (its ε depends on the
//     model dimension), or a σ-only Gaussian without a δ;
//   - "none": the Spec injects no noise and claims no privacy.
//
// No amplification by subsampling is claimed. Each worker draws a
// fixed-size batch without replacement from its own data (data.Batcher),
// the substitution model of Balle et al. (2018), but the sampling rate
// depends on the partition a run materializes, not on the Spec, and
// amplified RDP needs a subsampled-Gaussian bound this module does not
// implement. The reported ε is therefore a valid upper bound, loose by the
// amplification it leaves out.
type Privacy struct {
	Epsilon  float64 `json:"epsilon,omitempty"`
	Delta    float64 `json:"delta,omitempty"`
	Releases int     `json:"releases"`
	Method   string  `json:"method"`
}

// Privacy is the run ledger: the spend of releases rounds of this Spec, a
// pure function of the two, so a resumed run, which ends on the same
// absolute step, reports the uninterrupted run's spend. Every worker
// releases at most one submission per round. A negative count is read as
// zero.
func (s *Spec) Privacy(releases int) Privacy {
	p := Privacy{Releases: max(releases, 0), Method: "none"}
	mech := s.Mechanism
	if mech == nil {
		return p
	}
	p.Method = "not covered"
	if s.ClipNorm <= 0 || (s.WorkerMomentum > 0 && !s.MomentumPostNoise) {
		return p
	}
	switch mech.Name {
	case "gaussian":
		sens := 2 * s.ClipNorm / float64(s.BatchSize)
		sigma := mech.Sigma
		if sigma <= 0 {
			var err error
			if sigma, err = dp.GaussianSigma(sens, dp.Budget{Epsilon: mech.Epsilon, Delta: mech.Delta}); err != nil {
				return p
			}
		}
		eps, err := dp.RDPEpsilon(sigma/sens, p.Releases, mech.Delta)
		if err != nil {
			return p
		}
		p.Epsilon, p.Delta, p.Method = eps, mech.Delta, "rdp"
	case "laplace":
		if mech.Sigma <= 0 && mech.Epsilon > 0 {
			p.Epsilon, p.Method = float64(p.Releases)*mech.Epsilon, "basic"
		}
	}
	return p
}

// stopped is the Result a backend returns beside err: for a run that
// stopped inside its step loop, one carrying only the spend of the rounds it
// released — the committed ones and the one in flight, at most Steps —
// and nil for an error raised before any round ran.
func stopped(s *Spec, backend string, err error) *Result {
	var st *round.Stopped
	if !errors.As(err, &st) {
		return nil
	}
	return &Result{Backend: backend, Privacy: s.Privacy(min(st.Committed+1, s.Steps))}
}
