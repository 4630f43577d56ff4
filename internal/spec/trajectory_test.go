package spec

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"testing"

	"dpbyz/internal/attack"
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
// carries no worker momentum, so ClusterBackend refuses that resume
// (ErrInexactResume). Every snapshot carries the epoch books, so a resumed
// run's ledger is its uninterrupted twin's (140 = 20 rounds × 7); those
// three ledgers were regenerated from this test's output when the books
// became the one ledger, and no params pin moved.
var trajectoryPins = map[string]trajectoryPin{
	"plain/local":               {params: 0x7b10ea971caeeb27},
	"plain/resumed":             {params: 0x7b10ea971caeeb27},
	"plain/cluster":             {params: 0x7b10ea971caeeb27, ledger: [4]int{140, 0, 0, 0}},
	"plain/clusterResumed":      {params: 0x7b10ea971caeeb27, ledger: [4]int{140, 0, 0, 0}},
	"quorum+credit/local":       {params: 0xc9d09a92798d5247, ledger: [4]int{122, 18, 17, 19}},
	"quorum+credit/resumed":     {params: 0xc9d09a92798d5247, ledger: [4]int{122, 18, 17, 19}},
	"membership/local":          {params: 0x7b10ea971caeeb27, ledger: [4]int{140, 0, 0, 0}},
	"membership/resumed":        {params: 0x7b10ea971caeeb27, ledger: [4]int{140, 0, 0, 0}},
	"membership/cluster":        {params: 0x7b10ea971caeeb27, ledger: [4]int{140, 0, 0, 0}},
	"membership/clusterResumed": {params: 0x7b10ea971caeeb27, ledger: [4]int{140, 0, 0, 0}},
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

// TestTrajectoryPins is a slice of ROADMAP item 4: whole-run trajectories
// pinned across both backends and a mid-run resume, so a change that moves
// local and cluster together still trips it. amd64-only, like every golden
// here: the compiler fuses multiply-adds elsewhere. Within amd64 the pins
// hold on CPUs with AVX and FMA only: math.Exp in the model's sigmoid takes
// an FMA branch there (math/exp_amd64.go, useFMA) and rounds differently
// without it (ROADMAP rule (iv)).
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
			res, err := b.Run(ctx, s, WithResume(snapshotAt(t, b, s, trajectoryResumeAt)))
			if err != nil {
				t.Fatalf("%s %s resumed: %v", name, b.Name(), err)
			}
			return res
		}

		// sameRun holds a resumed run to its uninterrupted twin: the same
		// params and the same ledger, per-epoch books included. Only the
		// in-process workers' round counts may differ.
		sameRun := func(key string, resumed, full *Result) {
			t.Helper()
			if got, want := pinOf(resumed), pinOf(full); got != want {
				t.Errorf("%s: resumed %#v, uninterrupted %#v", key, got, want)
			}
			var r, f ClusterStats
			if resumed.Cluster != nil {
				r = *resumed.Cluster
			}
			if full.Cluster != nil {
				f = *full.Cluster
			}
			r.WorkerRounds, f.WorkerRounds = nil, nil
			if (resumed.Cluster == nil) != (full.Cluster == nil) || !reflect.DeepEqual(r, f) {
				t.Errorf("%s: resumed ledger %+v, uninterrupted %+v", key, resumed.Cluster, full.Cluster)
			}
		}

		local, err := (&LocalBackend{}).Run(ctx, s)
		if err != nil {
			t.Fatalf("%s local: %v", name, err)
		}
		check(name+"/local", local)
		resumed := resume(&LocalBackend{})
		check(name+"/resumed", resumed)
		sameRun(name+"/resumed", resumed, local)

		if s.Staleness != nil {
			continue
		}
		dist, err := (&ClusterBackend{}).Run(ctx, s)
		if err != nil {
			t.Fatalf("%s cluster: %v", name, err)
		}
		check(name+"/cluster", dist)
		if s.WorkerMomentum == 0 {
			distResumed := resume(&ClusterBackend{})
			check(name+"/clusterResumed", distResumed)
			sameRun(name+"/clusterResumed", distResumed, dist)
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
