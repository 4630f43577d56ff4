package spec

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dpbyz/internal/data"
	"dpbyz/internal/randx"
)

// sharedBase is resumeSpec with the dataset pinned (Data.Seed set), the
// shape of a sweep: the run seed varies, the data key does not.
func sharedBase(runSeed uint64) Spec {
	s := resumeSpec(30)
	s.Data.Seed = 7
	s.Seed = runSeed
	s.AccuracyEvery = 10
	return s
}

// sameResult reports the first difference between two runs' params, full
// histories (NaN-aware: compared by bits) and delivery ledgers.
func sameResult(got, want *Result) error {
	if len(got.Params) != len(want.Params) {
		return fmt.Errorf("%d params, want %d", len(got.Params), len(want.Params))
	}
	for i := range want.Params {
		if math.Float64bits(got.Params[i]) != math.Float64bits(want.Params[i]) {
			return fmt.Errorf("param %d: %v, want %v", i, got.Params[i], want.Params[i])
		}
	}
	if got.History.Len() != want.History.Len() {
		return fmt.Errorf("history length %d, want %d", got.History.Len(), want.History.Len())
	}
	for i := 0; i < want.History.Len(); i++ {
		g, w := got.History.Record(i), want.History.Record(i)
		if g.Step != w.Step ||
			math.Float64bits(g.Loss) != math.Float64bits(w.Loss) ||
			math.Float64bits(g.Accuracy) != math.Float64bits(w.Accuracy) ||
			math.Float64bits(g.VNRatio) != math.Float64bits(w.VNRatio) {
			return fmt.Errorf("history record %d: %+v, want %+v", i, g, w)
		}
	}
	if !reflect.DeepEqual(got.Cluster, want.Cluster) {
		return fmt.Errorf("ledger %+v, want %+v", got.Cluster, want.Cluster)
	}
	return nil
}

// hashDataset folds every feature and label of every point into one FNV-1a
// sum, so any write through a shared dataset shows.
func hashDataset(ds *data.Dataset) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, p := range ds.Points() {
		for _, x := range p.X {
			put(x)
		}
		put(p.Y)
	}
	return h.Sum64()
}

// writeLIBSVM writes a small two-class file whose features depend on seed.
func writeLIBSVM(t *testing.T, path string, seed uint64) {
	t.Helper()
	rng := randx.New(seed)
	var sb strings.Builder
	for i := 0; i < 240; i++ {
		label := i % 2
		fmt.Fprintf(&sb, "%d", label)
		for j := 1; j <= 5; j++ {
			fmt.Fprintf(&sb, " %d:%g", j, rng.Normal()+float64(2*label-1))
		}
		sb.WriteByte('\n')
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// sharedCase is one row of the table: prev runs first on the shared value,
// then s; hit says whether s must reuse the dataset prev left behind.
type sharedCase struct {
	name    string
	prev, s Spec
	hit     bool
}

func sharedCases() []sharedCase {
	with := func(runSeed uint64, mutate func(*Spec)) Spec {
		s := sharedBase(runSeed)
		mutate(&s)
		return s
	}
	unpinned := func(runSeed uint64) Spec {
		return with(runSeed, func(s *Spec) { s.Data.Seed = 0 })
	}
	gaussians := func(sep float64) Spec {
		return with(2, func(s *Spec) {
			s.Data.Source, s.Data.Separation = "two-gaussians", sep
		})
	}
	return []sharedCase{
		{"plain", sharedBase(1), sharedBase(2), true},
		{"another rule", sharedBase(1), with(3, func(s *Spec) { s.GAR = GARSpec{Name: "median", N: 9, F: 2} }), true},
		{"partition dirichlet", sharedBase(1), with(2, func(s *Spec) {
			s.Partition = &PartitionSpec{Name: "dirichlet", Beta: 0.3}
		}), true},
		{"partition shard", sharedBase(1), with(2, func(s *Spec) {
			s.Partition = &PartitionSpec{Name: "shard", Shards: 2}
		}), true},
		{"attack alie", sharedBase(1), with(4, func(s *Spec) { s.Attack = &AttackSpec{Name: "alie"} }), true},
		{"attack ipm", sharedBase(1), with(4, func(s *Spec) { s.Attack = &AttackSpec{Name: "ipm"} }), true},
		{"staleness credit", sharedBase(1), with(2, func(s *Spec) {
			s.Staleness = &StalenessSpec{Stragglers: 1, Late: "credit"}
		}), true},
		{"membership", sharedBase(1), with(2, func(s *Spec) {
			s.Steps = 15
			s.Membership = &MembershipSpec{MinWorkers: 5, MaxWorkers: 8, FRatio: 0.3, EpochRounds: 5}
		}), true},
		{"explicit defaults", sharedBase(1), with(2, func(s *Spec) { s.Data.Source = "synthetic-phishing" }), true},
		{"unpinned data seed", unpinned(1), unpinned(2), false},
		{"pinned to the run seed", unpinned(7), sharedBase(2), true},
		{"trainN", sharedBase(1), with(2, func(s *Spec) { s.Data.TrainN = 300 }), false},
		{"features", sharedBase(1), with(2, func(s *Spec) { s.Data.Features = 12 }), false},
		{"n", sharedBase(1), with(2, func(s *Spec) { s.Data.N = 700 }), false},
		{"source", sharedBase(1), gaussians(2), false},
		{"separation", gaussians(2), gaussians(3), false},
		{"separation default", gaussians(0), gaussians(2), true},
	}
}

// A run on a LocalBackend value that already built a dataset — the same one
// or another — is the run a fresh value gives, bit for bit; the value reuses
// the dataset exactly when the resolved data key repeats; and nothing ever
// writes through a dataset the value handed to a run.
func TestSharedBackendMatchesFresh(t *testing.T) {
	ctx := context.Background()
	be := &LocalBackend{}
	seen := map[*data.Dataset]uint64{}
	remember := func() builtData {
		be.mu.Lock()
		defer be.mu.Unlock()
		for _, ds := range []*data.Dataset{be.last.train, be.last.test} {
			if _, ok := seen[ds]; ds != nil && !ok {
				seen[ds] = hashDataset(ds)
			}
		}
		return be.last
	}
	for _, c := range sharedCases() {
		t.Run(c.name, func(t *testing.T) {
			want, err := (&LocalBackend{}).Run(ctx, c.s)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := be.Run(ctx, c.prev); err != nil {
				t.Fatal(err)
			}
			before := remember()
			got, err := be.Run(ctx, c.s)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameResult(got, want); err != nil {
				t.Errorf("shared value vs fresh value: %v", err)
			}
			if after := remember(); (after.train == before.train) != c.hit {
				t.Errorf("dataset reused = %v, want %v (keys %+v then %+v)",
					after.train == before.train, c.hit, before.key, after.key)
			}
		})
	}

	t.Run("libsvm file rewritten", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "points.libsvm")
		s := sharedBase(1)
		s.Data = DataSpec{Source: "libsvm", Path: path, Features: 5}
		s.GAR = GARSpec{Name: "median", N: 5, F: 1}
		writeLIBSVM(t, path, 1)
		before := remember()
		first, err := be.Run(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		writeLIBSVM(t, path, 2)
		got, err := be.Run(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		want, err := (&LocalBackend{}).Run(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameResult(got, want); err != nil {
			t.Errorf("second run did not read the rewritten file: %v", err)
		}
		if sameResult(got, first) == nil {
			t.Error("rewriting the file changed nothing: the case proves nothing")
		}
		if after := remember(); after.train != before.train {
			t.Error("a libsvm run replaced the remembered dataset")
		}
	})

	t.Run("injected datasets bypass", func(t *testing.T) {
		other := sharedBase(1)
		other.Data.Seed = 99
		train, test, err := other.buildDatasets()
		if err != nil {
			t.Fatal(err)
		}
		before := remember()
		got, err := be.Run(ctx, sharedBase(2), WithDatasets(train, test))
		if err != nil {
			t.Fatal(err)
		}
		want, err := (&LocalBackend{}).Run(ctx, sharedBase(2), WithDatasets(train, test))
		if err != nil {
			t.Fatal(err)
		}
		if err := sameResult(got, want); err != nil {
			t.Errorf("injected datasets on a warm value: %v", err)
		}
		if after := remember(); after.train != before.train || after.test != before.test {
			t.Error("an injected dataset replaced the remembered one")
		}
	})

	if len(seen) < 10 {
		t.Fatalf("only %d datasets passed through the value: the table did not exercise it", len(seen))
	}
	for ds, sum := range seen {
		if got := hashDataset(ds); got != sum {
			t.Errorf("a shared dataset (%d points) changed under the runs: FNV %x, was %x", ds.Len(), got, sum)
		}
	}
}

// Two runs on one ClusterBackend value whose data keys agree get the same
// *data.Dataset — the value synthesizes it once, as a LocalBackend does —
// and the second run is the run a fresh value gives, bit for bit.
func TestClusterBackendReusesDataset(t *testing.T) {
	ctx := context.Background()
	be := &ClusterBackend{}
	var built []*data.Dataset
	for runSeed := uint64(1); runSeed <= 2; runSeed++ {
		got, err := be.Run(ctx, sharedBase(runSeed))
		if err != nil {
			t.Fatal(err)
		}
		be.mu.Lock()
		built = append(built, be.last.train)
		be.mu.Unlock()
		want, err := (&ClusterBackend{}).Run(ctx, sharedBase(runSeed))
		if err != nil {
			t.Fatal(err)
		}
		if err := sameResult(got, want); err != nil {
			t.Errorf("run seed %d, shared value vs fresh value: %v", runSeed, err)
		}
	}
	if built[0] == nil || built[1] != built[0] {
		t.Errorf("second run's dataset %p, want the first run's %p", built[1], built[0])
	}
}

// One value, two goroutines, every Spec of the table: hits, misses and
// racing stores all at once, each run still the fresh value's run. The race
// detector watches the memo and the shared datasets.
func TestSharedBackendConcurrentRuns(t *testing.T) {
	ctx := context.Background()
	cases := sharedCases()
	want := make([]*Result, len(cases))
	for i, c := range cases {
		var err error
		if want[i], err = (&LocalBackend{}).Run(ctx, c.s); err != nil {
			t.Fatal(err)
		}
	}
	be := &LocalBackend{}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range cases {
				// Opposite directions, so the two disagree about the key
				// most of the time and agree in the middle.
				i := k
				if g == 1 {
					i = len(cases) - 1 - k
				}
				got, err := be.Run(ctx, cases[i].s)
				if err != nil {
					t.Errorf("goroutine %d, %s: %v", g, cases[i].name, err)
					continue
				}
				if err := sameResult(got, want[i]); err != nil {
					t.Errorf("goroutine %d, %s: %v", g, cases[i].name, err)
				}
			}
		}(g)
	}
	wg.Wait()
}
