package attack

import "dpbyz/internal/gar"

// AdaptiveAttack is a stateful, state-aware Byzantine attack: besides
// crafting each step's submission it observes every completed round — the
// server's aggregate and the honest submissions it was crafted against — and
// carries serializable state so checkpointed runs resume bit-identically.
//
// The one colluding adversary both backends run (worker.Adversary) detects
// adaptive attacks with a type assertion and skips Observe/state handling
// for stateless ones.
type AdaptiveAttack interface {
	Attack
	// Observe feeds the attacker round t's outcome: the aggregate the server
	// accepted and the honest submissions of the round. Implementations must
	// not retain either slice (copy to keep) and must not mutate them.
	Observe(round int, aggregate []float64, honest [][]float64)
	// State snapshots the attack's mutable state. The snapshot owns its
	// memory: mutating the attack afterwards must not change it.
	State() State
	// SetState rewinds the attack to a snapshot taken by State, making its
	// future Craft sequence bit-identical to the snapshotted attack's.
	SetState(State) error
}

// State is the serializable mutable state of an AdaptiveAttack — the shape
// is shared by every built-in attack so checkpoints need exactly one schema.
// The zero value is the initial state of every attack.
type State struct {
	// Round is the number of rounds observed so far.
	Round int `json:"round,omitempty"`
	// Gain is a scalar the attack tunes online (the IPM line-search factor).
	Gain float64 `json:"gain,omitempty"`
	// Drift is a vector the attack accumulates across rounds.
	Drift []float64 `json:"drift,omitempty"`
}

// GARAware is implemented by attacks that exploit knowledge of the server's
// aggregation rule — the paper's omniscient-adversary threat model pushed one
// step further. The execution surfaces inject the materialized rule before
// the first Craft; attacks degrade gracefully (to their rule-free behaviour)
// when no rule is injected.
type GARAware interface {
	SetGAR(g gar.GAR)
}

// AdaptiveNames returns the registered attacks that are adaptive (stateful);
// every other registered name is stateless.
func AdaptiveNames() []string {
	var names []string
	for _, name := range Names() {
		if _, ok := registry[name]().(AdaptiveAttack); ok {
			names = append(names, name)
		}
	}
	return names
}
