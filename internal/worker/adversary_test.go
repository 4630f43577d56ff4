package worker

import (
	"testing"

	"dpbyz/internal/attack"
	"dpbyz/internal/checkpoint"
	"dpbyz/internal/gar"
	"dpbyz/internal/randx"
)

// A coalition snapshotted after round k−1 and restored into a fresh one
// crafts rounds k onward exactly as the uninterrupted coalition does: the
// attack stream and a stateful attack's state travel in the snapshot, and
// the fresh shadows replay the gap. A coalition whose adaptive attack is
// handed a snapshot without attack state refuses it.
func TestCoalitionSnapshotRestore(t *testing.T) {
	const n, f, rounds, k = 7, 2, 12, 5
	cfg := testConfig(t, "gaussian", 0, false)
	coalition := func(name string) *Coalition {
		t.Helper()
		a, err := attack.New(name)
		if err != nil {
			t.Fatal(err)
		}
		rule, err := gar.New("trimmedmean", n, f)
		if err != nil {
			t.Fatal(err)
		}
		shadows := make([]*Pipeline, n-f)
		for i := range shadows {
			if shadows[i], err = New(cfg, randx.New(3), f+i); err != nil {
				t.Fatal(err)
			}
		}
		return NewCoalition(a, randx.New(3), rule, shadows)
	}
	params := func(r int) []float64 {
		w := make([]float64, cfg.Model.Dim())
		for j := range w {
			w[j] = 0.01 * float64((r+1)*(j+1)%7)
		}
		return w
	}
	for _, name := range []string{"alie", "drift", "ipm", "randomnoise"} {
		full, cut := coalition(name), coalition(name)
		st := &checkpoint.RunState{Step: k}
		for r := 0; r < rounds; r++ {
			want, err := full.Submission(r, params(r))
			if err != nil {
				t.Fatal(err)
			}
			if r == k {
				cut.Snapshot(st)
				cut = coalition(name)
				if err := cut.Restore(st); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			got, err := cut.Submission(r, params(r))
			if err != nil {
				t.Fatal(err)
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%s: round %d coordinate %d: restored %v, uninterrupted %v", name, r, j, got[j], want[j])
				}
			}
		}
	}
	if err := coalition("drift").Restore(&checkpoint.RunState{Step: k}); err == nil {
		t.Error("drift coalition restored from a snapshot without attack state")
	}
}
