//go:build !race

package worker

import "testing"

// The steady-state Step — batch draw, gradient, clip, noise, momentum —
// allocates nothing in either ordering, and neither does the Skip replay.
func TestStepZeroAlloc(t *testing.T) {
	for _, postNoise := range []bool{false, true} {
		cfg := testConfig(t, "gaussian", 0.9, postNoise)
		p := mustNew(t, cfg)
		w := make([]float64, cfg.Model.Dim())
		p.Step(w) // the batch stream sizes its sample table on first use
		if a := testing.AllocsPerRun(100, func() { p.Step(w) }); a != 0 {
			t.Errorf("postNoise=%v: Step allocates %v per call, want 0", postNoise, a)
		}
		if a := testing.AllocsPerRun(100, func() { p.Skip(1) }); a != 0 {
			t.Errorf("postNoise=%v: Skip allocates %v per round, want 0", postNoise, a)
		}
	}
}
