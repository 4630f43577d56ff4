//go:build !race

package round

import (
	"testing"

	"dpbyz/internal/metrics"
)

// Commit is the steady-state tail of every round on both backends: with no
// hook and no snapshot due it must allocate nothing.
func TestCommitZeroAlloc(t *testing.T) {
	const steps = 1 << 12
	c := mustNew(t, Config{Name: "t", Unit: "step", Dim: 64, Steps: steps, Momentum: 0.9,
		Hook: func(metrics.StepRecord, []float64) error { return nil }})
	agg := make([]float64, 64)
	for i := range agg {
		agg[i] = 1e-3
	}
	step := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		if err := c.Commit(step, agg); err != nil {
			t.Fatal(err)
		}
		step++
	}); allocs != 0 {
		t.Errorf("Commit allocs/op = %v, want 0", allocs)
	}
}
