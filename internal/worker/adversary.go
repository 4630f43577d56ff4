package worker

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"dpbyz/internal/attack"
	"dpbyz/internal/checkpoint"
	"dpbyz/internal/gar"
	"dpbyz/internal/randx"
)

// Adversary is the Byzantine coalition of the paper's §5.1, written once
// for both backends: the f Byzantine workers collude, see the round's
// honest submissions, and all submit the one vector their attack crafts
// from them, drawing any randomness from the run's single LabelAttack
// stream. A stateful attack (attack.AdaptiveAttack) then observes the
// round's aggregate; a GAR-aware one line-searches against the rule SetGAR
// gives it.
//
// The simulator drives an Adversary with its own honest submissions and its
// real aggregate. A cluster's Byzantine workers share a Coalition, which
// recomputes both.
type Adversary struct {
	attack   attack.Attack
	adaptive attack.AdaptiveAttack
	rng      *randx.Stream
}

// NewAdversary returns the coalition running a — nil for an unattacked run,
// whose snapshots still record the untouched attack stream — with its
// stream derived from root (which is not advanced). It is a value, so a
// run can hold it without an allocation of its own.
func NewAdversary(a attack.Attack, root *randx.Stream) Adversary {
	adv := Adversary{attack: a, rng: root.Derive(LabelAttack)}
	adv.adaptive, _ = a.(attack.AdaptiveAttack)
	return adv
}

// SetGAR hands a GAR-aware attack the rule it line-searches against; other
// attacks ignore it.
func (a *Adversary) SetGAR(g gar.GAR) {
	if ga, ok := a.attack.(attack.GARAware); ok {
		ga.SetGAR(g)
	}
}

// Craft returns the vector every Byzantine worker submits this round. It
// may alias attack-owned memory that the next Craft reuses.
func (a *Adversary) Craft(honest [][]float64) ([]float64, error) {
	return a.attack.Craft(honest, a.rng)
}

// Observe feeds a stateful attack the completed round: the aggregate and
// the honest submissions it was crafted against. For a stateless attack
// the nil check is its whole cost.
func (a *Adversary) Observe(round int, agg []float64, honest [][]float64) {
	if a.adaptive != nil {
		a.adaptive.Observe(round, agg, honest)
	}
}

// Snapshot records the attack stream's position and a stateful attack's
// state in st; both are copies.
func (a *Adversary) Snapshot(st *checkpoint.RunState) {
	rs := a.rng.State()
	st.AttackRng = &rs
	if a.adaptive != nil {
		as := a.adaptive.State()
		st.Attack = &as
	}
}

// Restore rewinds the coalition to a snapshot taken by Snapshot. A snapshot
// whose attack state does not fit the configured attack is rejected.
func (a *Adversary) Restore(st *checkpoint.RunState) error {
	if st.AttackRng != nil {
		a.rng.SetState(*st.AttackRng)
	}
	switch {
	case st.Attack != nil && a.adaptive == nil:
		return errors.New("resume has adaptive attack state but the configured attack is stateless")
	case st.Attack != nil:
		return a.adaptive.SetState(*st.Attack)
	case a.adaptive != nil && st.Step > 0:
		// Every mid-run snapshot of an adaptive run carries attack state, so
		// its absence means the snapshot belongs to a different scenario (or
		// was truncated): resuming would silently reset the attacker.
		return errors.New("adaptive attack configured but the snapshot carries no attack state")
	}
	return nil
}

// Coalition is the Adversary of a backend whose honest workers live behind
// connections. Batches and noise are pure functions of (run seed, worker
// id), so the coalition recomputes the round's honest submissions from the
// broadcast parameters with shadow pipelines of the honest workers, crafts
// once per round, and observes rule(f × crafted ++ honest) — the exact
// aggregate of a synchronous fixed cohort. Every Byzantine worker of the
// run submits its vector; it is safe for concurrent use.
type Coalition struct {
	mu      sync.Mutex
	adv     Adversary
	rule    gar.GAR
	shadows []*Pipeline
	// honest holds the round's shadow submissions.
	honest [][]float64
	// consumed is the shadows' stream position in rounds; round is the
	// newest round crafted (-1 before the first), crafted and err its
	// outcome.
	consumed, round int
	crafted         []float64
	err             error
}

// NewCoalition returns the coalition running a with its stream derived from
// root, aggregating and line-searching with rule — its own instance, never
// one another goroutine aggregates with — over the honest workers' shadow
// pipelines, which it owns from here on.
func NewCoalition(a attack.Attack, root *randx.Stream, rule gar.GAR, shadows []*Pipeline) *Coalition {
	adv := NewAdversary(a, root)
	adv.SetGAR(rule)
	return &Coalition{adv: adv, rule: rule, shadows: shadows, honest: make([][]float64, len(shadows)), round: -1}
}

// Submission returns the Byzantine vector of round at broadcast parameters
// w. The round's first caller crafts it; the other Byzantine workers of the
// round, and one still asking for a round the coalition has passed, get the
// newest vector. Like a real worker's, the shadows replay a broadcast gap
// before they step.
func (c *Coalition) Submission(round int, w []float64) ([]float64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if round > c.round {
		c.round = round
		c.crafted, c.err = c.craft(round, w)
	}
	return c.crafted, c.err
}

// Snapshot records the coalition's attack half in st, as Adversary.Snapshot
// does. Taken at a commit of a synchronous fixed cohort, every Byzantine
// submission of the committed rounds has been crafted and the next round's
// has not, so it is the local run's attack half at the same step.
func (c *Coalition) Snapshot(st *checkpoint.RunState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.adv.Snapshot(st)
}

// Restore rewinds a coalition that has not crafted yet to a snapshot taken
// by Snapshot (or by the local backend). The shadows replay the rounds
// before st.Step on the first craft, like any worker's broadcast gap.
func (c *Coalition) Restore(st *checkpoint.RunState) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.adv.Restore(st)
}

func (c *Coalition) craft(round int, w []float64) ([]float64, error) {
	for _, p := range c.shadows {
		p.Skip(round - c.consumed)
	}
	StepAll(c.honest, c.shadows, w)
	c.consumed = round + 1
	v, err := c.adv.Craft(c.honest)
	if err != nil {
		return nil, err
	}
	// A worker may still be sending this round's vector when the next
	// round is crafted, so each round gets its own copy.
	v = slices.Clone(v)
	if c.adv.adaptive != nil {
		subs := append(slices.Repeat([][]float64{v}, c.rule.F()), c.honest...)
		agg := make([]float64, len(v))
		if err := gar.AggregateInto(c.rule, agg, subs); err != nil {
			return nil, fmt.Errorf("observed aggregate: %w", err)
		}
		c.adv.Observe(round, agg, c.honest)
	}
	return v, nil
}
