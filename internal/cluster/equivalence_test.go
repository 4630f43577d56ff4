package cluster

import (
	"context"
	"testing"
	"time"

	"dpbyz/internal/dp"
	"dpbyz/internal/gar"
	"dpbyz/internal/vecmath"
)

// TestFixedCohortIsOneEpochMembership is the degenerate-case proof behind
// the single round loop: a fixed-cohort config and the one-epoch membership
// config written out by hand (Min = Max = n, one epoch spanning the run,
// FRatio = f/n, a factory building the same rule) must be the same run —
// bit-identical final parameters, identical ledgers, identical per-worker
// round counts — with DP noise on and the same seeds. The second case repeats
// it with a commit target below n (Quorum and LateCredit against Stragglers):
// the slowest workers are registered but never answer, so which submissions
// make every cut is fixed by the scenario, not by arrival order.
func TestFixedCohortIsOneEpochMembership(t *testing.T) {
	const steps = 12
	ds := testDataset(t)
	m := testModel(t)
	cases := []struct {
		name                      string
		rule                      string
		n, f                      int
		quorum, stragglers, mutes int
		lateCredit                bool
	}{
		{name: "synchronous", rule: "median", n: 5, f: 1},
		{name: "quorum", rule: "average", n: 5, quorum: 3, stragglers: 2, mutes: 2, lateCredit: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(epoched bool) (*ServerResult, []*WorkerResult) {
				tr := NewChanTransport()
				srvCfg := ServerConfig{
					Addr:         "equiv",
					Transport:    tr,
					Dim:          m.Dim(),
					Steps:        steps,
					LearningRate: 2,
					Momentum:     0.9,
					RoundTimeout: 10 * time.Second,
					LateCredit:   tc.lateCredit,
				}
				if epoched {
					srvCfg.Membership = &MembershipConfig{
						MinWorkers:  tc.n,
						MaxWorkers:  tc.n,
						FRatio:      float64(tc.f) / float64(tc.n),
						EpochRounds: steps,
						Stragglers:  tc.stragglers,
						NewGAR:      func(n, f int) (gar.GAR, error) { return gar.New(tc.rule, n, f) },
					}
				} else {
					srvCfg.GAR = mustGAR(t, tc.rule, tc.n, tc.f)
					srvCfg.Quorum = tc.quorum
				}
				srv, err := NewServer(srvCfg)
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				defer cancel()
				// The highest ids stay mute; the rest are real DP workers.
				live := tc.n - tc.mutes
				for id := live; id < tc.n; id++ {
					scriptedWorker(t, tr, "equiv", id, epoched, 0, m.Dim())
				}
				results := make([]*WorkerResult, live)
				errs := make(chan error, live)
				for i := 0; i < live; i++ {
					go func(i int) {
						mech, err := dp.NewGaussianWithSigma(0.05)
						if err != nil {
							errs <- err
							return
						}
						results[i], err = RunWorker(ctx, WorkerConfig{
							Addr: "equiv", Transport: tr, WorkerID: i, Membership: epoched,
							Model: m, Train: ds, BatchSize: 20, ClipNorm: 0.01,
							Mechanism: mech, Seed: 7,
						})
						errs <- err
					}(i)
				}
				res, err := srv.Run(ctx)
				if err != nil {
					t.Fatalf("server (epoched=%v): %v", epoched, err)
				}
				for i := 0; i < live; i++ {
					if werr := <-errs; werr != nil {
						t.Errorf("worker (epoched=%v): %v", epoched, werr)
					}
				}
				return res, results
			}
			fixed, fixedWorkers := run(false)
			epoched, epochedWorkers := run(true)

			if !vecmath.ApproxEqual(fixed.Params, epoched.Params, 0) {
				t.Error("final params differ between the fixed config and its one-epoch membership form")
			}
			type ledger struct{ accepted, missed, discarded, credited int }
			books := func(r *ServerResult) ledger {
				return ledger{r.AcceptedGradients, r.MissedGradients, r.DiscardedSubmissions, r.CreditedGradients}
			}
			if books(fixed) != books(epoched) {
				t.Errorf("ledgers differ: fixed %+v, one-epoch membership %+v", books(fixed), books(epoched))
			}
			if want := (ledger{accepted: (tc.n - tc.mutes) * steps, missed: tc.mutes * steps}); books(fixed) != want {
				t.Errorf("ledger %+v, want %+v", books(fixed), want)
			}
			for i := range fixedWorkers {
				if fixedWorkers[i].Rounds != steps || epochedWorkers[i].Rounds != steps {
					t.Errorf("worker %d rounds: fixed %d, one-epoch membership %d, want %d both",
						i, fixedWorkers[i].Rounds, epochedWorkers[i].Rounds, steps)
				}
			}
			// The shapes differ only in what they report: a fixed cohort's one
			// epoch is its totals; the membership form books it explicitly.
			if len(fixed.Epochs) != 0 || len(epoched.Epochs) != 1 {
				t.Errorf("epoch books: fixed %d, one-epoch membership %d, want 0 and 1", len(fixed.Epochs), len(epoched.Epochs))
			}
		})
	}
}
