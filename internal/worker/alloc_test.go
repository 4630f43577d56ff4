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

// Below the fan-out grain StepAll is a plain loop over Step and allocates
// nothing either.
func TestStepAllZeroAlloc(t *testing.T) {
	cfg := testConfig(t, "gaussian", 0.9, false)
	pipes := make([]*Pipeline, 5)
	for i := range pipes {
		pipes[i] = mustNew(t, cfg)
	}
	dst := make([][]float64, len(pipes))
	w := make([]float64, cfg.Model.Dim())
	StepAll(dst, pipes, w)
	if a := testing.AllocsPerRun(100, func() { StepAll(dst, pipes, w) }); a != 0 {
		t.Errorf("StepAll allocates %v per round below the grain, want 0", a)
	}
}
