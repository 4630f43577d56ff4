package spec

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"dpbyz/internal/attack"
	"dpbyz/internal/checkpoint"
)

// trajectoryPin is one pinned run: the FNV-64a of its final parameters'
// bits and its delivery ledger (Accepted, Missed, Discarded, Credited; all
// zero where the backend reports no ledger).
type trajectoryPin struct {
	params uint64
	ledger [4]int
}

// trajectoryPins pins four small Specs on the local backend, on the cluster
// backend over a ChanTransport, and on both backends resumed from a snapshot
// at step trajectoryResumeAt. The local constants were printed by this test
// at commit c8f21a9, before the commit step shared by both round loops
// existed, and must not be edited by a refactor that means to keep the bits.
// The cluster constants were printed once the cluster's Byzantine workers
// ran the simulator's colluding adversary; each equals its local twin.
// The quorum Spec has no cluster pin: its commit cut takes the first
// n − f − s arrivals, so which submissions make a round depends on timing.
// The momentumPostNoise Spec has no resumed cluster pin: a cluster snapshot
// carries no worker momentum. A resumed fully synchronous run counts only
// its own segment's accepted submissions (84 = 12 rounds × 7) outside the
// per-epoch ledgers, which carry across the snapshot; the pins record that
// as it is.
var trajectoryPins = map[string]trajectoryPin{
	"plain/local":               {params: 0x7b10ea971caeeb27},
	"plain/resumed":             {params: 0x7b10ea971caeeb27},
	"plain/cluster":             {params: 0x7b10ea971caeeb27, ledger: [4]int{140, 0, 0, 0}},
	"plain/clusterResumed":      {params: 0x7b10ea971caeeb27, ledger: [4]int{84, 0, 0, 0}},
	"quorum+credit/local":       {params: 0xc9d09a92798d5247, ledger: [4]int{122, 18, 17, 19}},
	"quorum+credit/resumed":     {params: 0xc9d09a92798d5247, ledger: [4]int{122, 18, 17, 19}},
	"membership/local":          {params: 0x7b10ea971caeeb27, ledger: [4]int{140, 0, 0, 0}},
	"membership/resumed":        {params: 0x7b10ea971caeeb27, ledger: [4]int{84, 0, 0, 0}},
	"membership/cluster":        {params: 0x7b10ea971caeeb27, ledger: [4]int{140, 0, 0, 0}},
	"membership/clusterResumed": {params: 0x7b10ea971caeeb27, ledger: [4]int{84, 0, 0, 0}},
	"momentumPostNoise/local":   {params: 0x3fe3bbe8ffeb061b},
	"momentumPostNoise/resumed": {params: 0x3fe3bbe8ffeb061b},
	"momentumPostNoise/cluster": {params: 0x3fe3bbe8ffeb061b, ledger: [4]int{140, 0, 0, 0}},
}

// trajectoryResumeAt is the snapshot step the resumed runs restart from;
// it falls mid-epoch for the membership Spec.
const trajectoryResumeAt = 8

// trajectorySpecs are the pinned scenarios: server momentum under attack
// and DP, quorum rounds with late credit, three membership epochs, and the
// theory ordering of worker momentum.
func trajectorySpecs() map[string]Spec {
	base := func() Spec {
		return Spec{
			Data:         DataSpec{N: 400, Features: 10},
			GAR:          GARSpec{Name: "trimmedmean", N: 7, F: 2},
			Attack:       &AttackSpec{Name: "alie"},
			Mechanism:    &MechanismSpec{Name: "gaussian", Epsilon: 0.5, Delta: 1e-6},
			Steps:        20,
			BatchSize:    20,
			LearningRate: 2,
			Momentum:     0.9,
			ClipNorm:     0.01,
			Seed:         3,
		}
	}
	quorum := base()
	quorum.Staleness = &StalenessSpec{Stragglers: 1, Late: "credit"}
	epochs := base()
	epochs.Membership = &MembershipSpec{MinWorkers: 7, MaxWorkers: 7, FRatio: 0.3, EpochRounds: 7}
	postNoise := base()
	postNoise.Momentum = 0
	postNoise.WorkerMomentum = 0.9
	postNoise.MomentumPostNoise = true
	return map[string]Spec{
		"plain":             base(),
		"quorum+credit":     quorum,
		"membership":        epochs,
		"momentumPostNoise": postNoise,
	}
}

func pinOf(res *Result) trajectoryPin {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range res.Params {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	p := trajectoryPin{params: h.Sum64()}
	if c := res.Cluster; c != nil {
		p.ledger = [4]int{c.Accepted, c.Missed, c.Discarded, c.Credited}
	}
	return p
}

// TestTrajectoryPins is a slice of ROADMAP item 2(b): whole-run trajectories
// pinned across both backends and a mid-run resume, so a change that moves
// local and cluster together still trips it. amd64-only, like every golden
// here: the compiler fuses multiply-adds elsewhere.
func TestTrajectoryPins(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("trajectory pins are pinned to GOARCH=amd64 (FMA fusion makes float results per-architecture); running on %s", runtime.GOARCH)
	}
	ctx := context.Background()
	for name, s := range trajectorySpecs() {
		check := func(key string, res *Result) {
			t.Helper()
			got := pinOf(res)
			if want, ok := trajectoryPins[key]; !ok || got != want {
				t.Errorf("%s: got %#v, want %#v", key, got, want)
			}
		}

		// resume runs s on b with a snapshot taken at trajectoryResumeAt,
		// then resumes a second run from it.
		resume := func(b Backend) *Result {
			t.Helper()
			var snap *checkpoint.RunState
			if _, err := b.Run(ctx, s, WithSnapshotFunc(func(st *checkpoint.RunState) error {
				if st.Step == trajectoryResumeAt {
					snap = st
				}
				return nil
			}, trajectoryResumeAt)); err != nil {
				t.Fatalf("%s %s checkpointed: %v", name, b.Name(), err)
			}
			if snap == nil {
				t.Fatalf("%s %s: no snapshot at step %d", name, b.Name(), trajectoryResumeAt)
			}
			res, err := b.Run(ctx, s, WithResume(snap))
			if err != nil {
				t.Fatalf("%s %s resumed: %v", name, b.Name(), err)
			}
			return res
		}

		local, err := (&LocalBackend{}).Run(ctx, s)
		if err != nil {
			t.Fatalf("%s local: %v", name, err)
		}
		check(name+"/local", local)
		resumed := resume(&LocalBackend{})
		check(name+"/resumed", resumed)
		if pinOf(resumed).params != pinOf(local).params {
			t.Errorf("%s: resumed params are not the uninterrupted run's", name)
		}

		if s.Staleness != nil {
			continue
		}
		dist, err := (&ClusterBackend{}).Run(ctx, s)
		if err != nil {
			t.Fatalf("%s cluster: %v", name, err)
		}
		check(name+"/cluster", dist)
		if s.WorkerMomentum == 0 {
			check(name+"/clusterResumed", resume(&ClusterBackend{}))
		}
	}
}

// GoString makes a failing pin print as a pasteable literal.
func (p trajectoryPin) GoString() string {
	return fmt.Sprintf("trajectoryPin{params: %#016x, ledger: [4]int{%d, %d, %d, %d}}",
		p.params, p.ledger[0], p.ledger[1], p.ledger[2], p.ledger[3])
}

// TestAttackParityAcrossBackends holds every registered attack to the
// paper's one colluding adversary on both backends: on the plain trajectory
// Spec (a fixed, synchronous cohort) the local and the cluster run must end
// on the same bits. A newly registered attack the cluster cannot replay
// fails here.
func TestAttackParityAcrossBackends(t *testing.T) {
	ctx := context.Background()
	for _, name := range attack.Names() {
		t.Run(name, func(t *testing.T) {
			s := trajectorySpecs()["plain"]
			s.Attack = &AttackSpec{Name: name}
			local, err := (&LocalBackend{}).Run(ctx, s)
			if err != nil {
				t.Fatal(err)
			}
			dist, err := (&ClusterBackend{}).Run(ctx, s)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := pinOf(dist).params, pinOf(local).params; got != want {
				t.Errorf("cluster params %#016x, local %#016x", got, want)
			}
		})
	}
}
