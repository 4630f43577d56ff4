package attack

import (
	"fmt"
	"math"

	"dpbyz/internal/randx"
	"dpbyz/internal/vecmath"
)

// DriftAttack is the adaptive drift attack: it accumulates the server's past
// aggregates into a decayed drift vector — the model's recent descent
// history — and each step submits the honest mean displaced AGAINST that
// persistent direction, scaled to the honest mean's norm. Where the
// stateless sign flip opposes only the current (noisy) mean, the drift
// attacker opposes the low-pass-filtered trajectory, a far more stable
// target under DP noise and heterogeneity; whatever bias leaks through the
// aggregation rule slows the accumulated direction and feeds back into the
// next displacement. Before the first observation it degrades to the
// sign-flip opening.
type DriftAttack struct {
	// Decay is the drift accumulator's momentum coefficient in [0, 1).
	Decay float64
	// Nu scales the injected displacement relative to the honest mean norm.
	Nu float64

	round int
	drift []float64
	// crafted is the reusable submission buffer.
	crafted []float64
}

// Drift attack defaults.
const (
	DefaultDriftDecay = 0.9
	DefaultDriftNu    = 1.5
)

var (
	_ Attack         = (*DriftAttack)(nil)
	_ AdaptiveAttack = (*DriftAttack)(nil)
)

// NewDrift returns the drift attack with default parameters.
func NewDrift() *DriftAttack {
	return &DriftAttack{Decay: DefaultDriftDecay, Nu: DefaultDriftNu}
}

// Name implements Attack.
func (d *DriftAttack) Name() string { return "drift" }

// Craft implements Attack: ḡ − ν·‖ḡ‖·d̂ with d̂ the unit accumulated drift
// (so the displacement opposes the descent history); before any drift
// accumulates it submits −ν·ḡ (the sign-flip opening).
func (d *DriftAttack) Craft(honest [][]float64, _ *randx.Stream) ([]float64, error) {
	mean, err := honestMean(honest)
	if err != nil {
		return nil, err
	}
	nu := d.Nu
	if nu == 0 {
		nu = DefaultDriftNu
	}
	driftNorm := 0.0
	if d.drift != nil {
		driftNorm = vecmath.Norm(d.drift)
	}
	if cap(d.crafted) < len(mean) {
		d.crafted = make([]float64, len(mean))
	}
	d.crafted = d.crafted[:len(mean)]
	if driftNorm == 0 || math.IsInf(driftNorm, 0) || math.IsNaN(driftNorm) {
		for i, m := range mean {
			d.crafted[i] = -nu * m
		}
		return d.crafted, nil
	}
	scale := nu * vecmath.Norm(mean) / driftNorm
	for i, m := range mean {
		d.crafted[i] = m - scale*d.drift[i]
	}
	return d.crafted, nil
}

// Observe implements AdaptiveAttack: drift ← decay·drift + aggregate. The
// accumulated direction is the (sign-flipped) descent history, so pushing
// along +drift pulls the model back the way it came.
func (d *DriftAttack) Observe(round int, aggregate []float64, _ [][]float64) {
	d.round = round + 1
	if aggregate == nil {
		return
	}
	decay := d.Decay
	if decay == 0 {
		decay = DefaultDriftDecay
	}
	if len(d.drift) != len(aggregate) {
		d.drift = make([]float64, len(aggregate))
	}
	for i, g := range aggregate {
		d.drift[i] = decay*d.drift[i] + g
	}
}

// State implements AdaptiveAttack.
func (d *DriftAttack) State() State {
	st := State{Round: d.round}
	if d.drift != nil {
		st.Drift = vecmath.Clone(d.drift)
	}
	return st
}

// SetState implements AdaptiveAttack.
func (d *DriftAttack) SetState(st State) error {
	if st.Gain != 0 {
		return fmt.Errorf("attack: drift cannot restore gain state")
	}
	d.round = st.Round
	if st.Drift == nil {
		d.drift = nil
		return nil
	}
	d.drift = vecmath.Clone(st.Drift)
	return nil
}
