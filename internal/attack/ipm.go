package attack

import (
	"fmt"

	"dpbyz/internal/gar"
	"dpbyz/internal/randx"
	"dpbyz/internal/vecmath"
)

// IPM is the GAR-aware adaptive inner-product maximizer: an inner-product
// manipulation attack (the Fall-of-Empires family, submitting (1 − ν)·ḡ)
// whose factor ν is line-searched each step against the server's known
// aggregation rule. For every candidate ν the attacker simulates the round —
// f copies of the candidate vector plus the observed honest submissions, fed
// through the actual rule — and submits the candidate whose simulated
// aggregate has the most negative inner product with the honest mean, i.e.
// the one that most damages the descent direction the server will take.
//
// Without an injected rule (SetGAR never called) the attack degrades to the
// stateless inner-product manipulation at its current ν. The tuned ν is the
// attack's serializable state, so checkpointed runs resume bit-identically.
type IPM struct {
	// Nu is the current attack factor ν, updated by the per-step line search.
	Nu float64
	// NuMin and NuMax bound the line search.
	NuMin, NuMax float64

	rule  gar.GAR
	round int
	// subs/candidate/agg are reusable scratch for the simulated rounds, so
	// the steady-state line search allocates nothing beyond the honest mean.
	subs      [][]float64
	candidate []float64
	agg       []float64
}

// IPM line-search defaults: start from the Fall-of-Empires factor and search
// a generous but bounded bracket around it.
const (
	DefaultIPMNu  = DefaultFoENu
	DefaultIPMMin = 0.25
	DefaultIPMMax = 16
)

// ipmLadder is the multiplicative candidate grid of each line-search step.
var ipmLadder = [...]float64{0.5, 0.8, 1, 1.25, 2}

var (
	_ Attack         = (*IPM)(nil)
	_ AdaptiveAttack = (*IPM)(nil)
	_ GARAware       = (*IPM)(nil)
)

// NewIPM returns the adaptive inner-product maximizer with default bounds.
func NewIPM() *IPM {
	return &IPM{Nu: DefaultIPMNu, NuMin: DefaultIPMMin, NuMax: DefaultIPMMax}
}

// Name implements Attack.
func (a *IPM) Name() string { return "ipm" }

// SetGAR implements GARAware: it arms the line search with the server's
// rule. Craft aggregates with it on the caller's goroutine; every gar rule
// aggregates from pooled scratch, so one rule may be shared with other
// attackers and with the server. The attack itself is not safe for
// concurrent Craft calls.
func (a *IPM) SetGAR(g gar.GAR) { a.rule = g }

// Craft implements Attack.
func (a *IPM) Craft(honest [][]float64, _ *randx.Stream) ([]float64, error) {
	mean, err := honestMean(honest)
	if err != nil {
		return nil, err
	}
	if a.Nu == 0 {
		a.Nu = DefaultIPMNu
	}
	if a.rule == nil || a.rule.F() == 0 {
		// No rule knowledge: plain inner-product manipulation at current ν.
		return a.craftAt(a.Nu, mean), nil
	}
	bestNu, bestScore, evaluated := 0.0, 0.0, 0
	var tried [len(ipmLadder)]float64
	for _, step := range ipmLadder {
		nu := a.clampNu(a.Nu * step)
		// Clamping can collapse several ladder rungs onto a bound; evaluate
		// each distinct factor once (a simulated round runs the full rule).
		seen := false
		for _, t := range tried[:evaluated] {
			if t == nu {
				seen = true
				break
			}
		}
		if seen {
			continue
		}
		tried[evaluated] = nu
		evaluated++
		score, err := a.simulate(a.craftAt(nu, mean), mean, honest)
		if err != nil {
			return nil, err
		}
		if evaluated == 1 || score < bestScore {
			bestNu, bestScore = nu, score
		}
	}
	a.Nu = bestNu
	// Re-craft the winner into the reusable buffer (O(d), no allocation)
	// instead of cloning every improving candidate during the search.
	return a.craftAt(bestNu, mean), nil
}

// clampNu bounds a candidate factor to [NuMin, NuMax].
func (a *IPM) clampNu(nu float64) float64 {
	if a.NuMin > 0 && nu < a.NuMin {
		return a.NuMin
	}
	if a.NuMax > 0 && nu > a.NuMax {
		return a.NuMax
	}
	return nu
}

// craftAt writes the candidate vector (1 − ν)·mean into the reusable buffer.
func (a *IPM) craftAt(nu float64, mean []float64) []float64 {
	if cap(a.candidate) < len(mean) {
		a.candidate = make([]float64, len(mean))
	}
	a.candidate = a.candidate[:len(mean)]
	for i, m := range mean {
		a.candidate[i] = (1 - nu) * m
	}
	return a.candidate
}

// simulate scores one candidate: it assembles the round the server would see
// — the rule's first F() slots colluding on cand, the rest the observed
// honest submissions (replicated round-robin when the attacker, as on the
// networked backend, observes fewer than n − f of them) — and returns the
// inner product of the rule's aggregate with the honest mean. Lower is worse
// for the defender.
func (a *IPM) simulate(cand, mean []float64, honest [][]float64) (float64, error) {
	n, f := a.rule.N(), a.rule.F()
	if cap(a.subs) < n {
		a.subs = make([][]float64, n)
	}
	a.subs = a.subs[:n]
	for i := 0; i < f; i++ {
		a.subs[i] = cand
	}
	for i := f; i < n; i++ {
		a.subs[i] = honest[(i-f)%len(honest)]
	}
	if cap(a.agg) < len(mean) {
		a.agg = make([]float64, len(mean))
	}
	a.agg = a.agg[:len(mean)]
	if err := gar.AggregateInto(a.rule, a.agg, a.subs); err != nil {
		return 0, fmt.Errorf("attack: ipm simulated round: %w", err)
	}
	return vecmath.Dot(a.agg, mean), nil
}

// Observe implements AdaptiveAttack: the line search already runs inside
// Craft against the known rule, so observation only advances the round
// counter that State serializes.
func (a *IPM) Observe(round int, _ []float64, _ [][]float64) { a.round = round + 1 }

// State implements AdaptiveAttack.
func (a *IPM) State() State { return State{Round: a.round, Gain: a.Nu} }

// SetState implements AdaptiveAttack.
func (a *IPM) SetState(st State) error {
	if len(st.Drift) != 0 {
		return fmt.Errorf("attack: ipm cannot restore drift state")
	}
	a.round = st.Round
	if st.Gain != 0 {
		a.Nu = st.Gain
	}
	return nil
}
