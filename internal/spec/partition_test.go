package spec

import (
	"context"
	"testing"
	"time"

	"dpbyz/internal/data"
	"dpbyz/internal/partition"
)

// heteroSpec is the acceptance scenario of the scenario-engine issue: a
// Dirichlet label-skew partition plus a stateful GAR-aware attacker under
// Gaussian DP noise.
func heteroSpec() Spec {
	return Spec{
		Name:           "hetero",
		Data:           DataSpec{N: 900, Features: 10},
		Partition:      &PartitionSpec{Name: "dirichlet", Beta: 0.3},
		GAR:            GARSpec{Name: "trimmedmean", N: 7, F: 2},
		Attack:         &AttackSpec{Name: "ipm"},
		Mechanism:      &MechanismSpec{Name: "gaussian", Epsilon: 0.5, Delta: 1e-6},
		Steps:          40,
		BatchSize:      20,
		LearningRate:   2,
		WorkerMomentum: 0.99,
		ClipNorm:       0.01,
		Seed:           1,
	}
}

// sameDataset compares two datasets point for point (bitwise).
func sameDataset(a, b *data.Dataset) bool {
	if a.Len() != b.Len() || a.Dim() != b.Dim() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		pa, pb := a.Point(i), b.Point(i)
		if pa.Y != pb.Y {
			return false
		}
		for j := range pa.X {
			if pa.X[j] != pb.X[j] {
				return false
			}
		}
	}
	return true
}

// Every process materializing the same partitioned Spec must compute
// identical per-worker datasets — the property that lets LocalBackend, the
// in-process cluster, and JoinSpec workers on other machines agree on the
// scenario without shipping data.
func TestPartitionCrossBackendDatasets(t *testing.T) {
	for _, name := range partition.Names() {
		if name == "iid" { // shares the full set, so disjointness does not apply
			continue
		}
		t.Run(name, func(t *testing.T) {
			s := heteroSpec()
			s.Partition = &PartitionSpec{Name: name, Beta: 0.3, Shards: 1, Alpha: 1.5}
			// Two independent materializations model two processes (the
			// local backend and a JoinSpec worker).
			local, err := s.materialize(&runOptions{})
			if err != nil {
				t.Fatal(err)
			}
			remote, err := s.materialize(&runOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if local.workerTrain == nil || len(local.workerTrain) != s.GAR.N {
				t.Fatalf("expected %d worker shards, got %v", s.GAR.N, len(local.workerTrain))
			}
			total := 0
			for id := 0; id < s.GAR.N; id++ {
				if !sameDataset(local.trainFor(id), remote.trainFor(id)) {
					t.Errorf("worker %d datasets differ across materializations", id)
				}
				total += local.trainFor(id).Len()
			}
			if total != local.train.Len() {
				t.Errorf("shards hold %d points, train split has %d", total, local.train.Len())
			}
		})
	}
	// The explicit "iid" partition is the shared-dataset default.
	s := heteroSpec()
	s.Partition = &PartitionSpec{Name: "iid"}
	m, err := s.materialize(&runOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.workerTrain != nil {
		t.Error("iid partition materialized per-worker copies")
	}
	if m.trainFor(3) != m.train {
		t.Error("iid worker dataset is not the shared train split")
	}
}

// An explicit "iid" partition must run bit-identically to no partition at
// all — the registry's default really is the historical behaviour.
func TestIIDPartitionMatchesUnpartitioned(t *testing.T) {
	ctx := context.Background()
	s := heteroSpec()
	s.Partition = nil
	plain, err := (&LocalBackend{}).Run(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	s.Partition = &PartitionSpec{Name: "iid"}
	iid, err := (&LocalBackend{}).Run(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Params {
		if plain.Params[i] != iid.Params[i] {
			t.Fatalf("param %d: iid %v != unpartitioned %v", i, iid.Params[i], plain.Params[i])
		}
	}
}

// The acceptance scenario: a Dirichlet + adaptive-attack Spec must be
// bit-reproducible per seed on BOTH backends — two runs of the same Spec
// agree exactly, and a different seed actually changes the trajectory.
func TestHeteroAdaptiveBitReproducible(t *testing.T) {
	ctx := context.Background()
	s := heteroSpec()

	runTwice := func(be Backend, opts ...Option) (*Result, *Result) {
		t.Helper()
		a, err := be.Run(ctx, s, opts...)
		if err != nil {
			t.Fatalf("%s: %v", be.Name(), err)
		}
		b, err := be.Run(ctx, s, opts...)
		if err != nil {
			t.Fatalf("%s: %v", be.Name(), err)
		}
		return a, b
	}
	assertSame := func(label string, a, b *Result) {
		t.Helper()
		if len(a.Params) != len(b.Params) {
			t.Fatalf("%s: param dims differ", label)
		}
		for i := range a.Params {
			if a.Params[i] != b.Params[i] {
				t.Fatalf("%s: param %d differs between identical runs: %v vs %v",
					label, i, a.Params[i], b.Params[i])
			}
		}
	}

	l1, l2 := runTwice(&LocalBackend{})
	assertSame("local", l1, l2)
	if !allFinite(l1.Params) {
		t.Fatal("local params not finite")
	}

	c1, c2 := runTwice(&ClusterBackend{}, WithRoundTimeout(time.Minute))
	assertSame("cluster", c1, c2)
	if !allFinite(c1.Params) {
		t.Fatal("cluster params not finite")
	}
	if got, want := c1.Cluster.Accepted+c1.Cluster.Missed, s.GAR.N*s.Steps; got != want {
		t.Errorf("cluster accounting %d, want %d", got, want)
	}

	// The seed is live: a different seed must not reproduce the same model.
	s2 := s
	s2.Seed = 2
	other, err := (&LocalBackend{}).Run(ctx, s2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range l1.Params {
		if other.Params[i] != l1.Params[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical trajectories")
	}
}

// Partition validation: unknown names and negative parameters are rejected
// before any run starts.
func TestPartitionSpecValidation(t *testing.T) {
	for name, mutate := range map[string]func(*Spec){
		"unknown partitioner": func(s *Spec) { s.Partition = &PartitionSpec{Name: "sorted"} }, //dpbyz:unregistered
		"negative beta":       func(s *Spec) { s.Partition = &PartitionSpec{Name: "dirichlet", Beta: -1} },
		"negative shards":     func(s *Spec) { s.Partition = &PartitionSpec{Name: "shard", Shards: -2} },
		"negative alpha":      func(s *Spec) { s.Partition = &PartitionSpec{Name: "quantity", Alpha: -0.5} },
	} {
		s := heteroSpec()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A partition that cannot feed every worker fails at materialize time.
	s := heteroSpec()
	s.Data.N = 20
	s.Data.TrainN = 8
	s.Partition = &PartitionSpec{Name: "shard", Shards: 3}
	if _, err := s.materialize(&runOptions{}); err == nil {
		t.Error("materialize accepted a partition with too few points per worker")
	}
}
