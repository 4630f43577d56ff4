package partition

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"dpbyz/internal/data"
)

// testDataset builds a deterministic binary-labelled dataset with balanced
// classes: even indices label 0, odd indices label 1.
func testDataset(t *testing.T, n int) *data.Dataset {
	t.Helper()
	pts := make([]data.Point, n)
	for i := range pts {
		pts[i] = data.Point{X: []float64{float64(i), 1}, Y: float64(i % 2)}
	}
	ds, err := data.New(pts)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func params(workers int, seed uint64) Params {
	return Params{Workers: workers, Seed: seed, Beta: 0.3, Shards: 1, Alpha: 1.5}
}

// Every disjoint partitioner must cover every dataset index exactly once,
// leave no worker empty, and be a pure function of the seed; "iid" must give
// every worker the full range.
func TestPartitionInvariants(t *testing.T) {
	ds := testDataset(t, 503) // odd size exercises remainders
	const workers = 7
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			pr, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			if pr.Name() != name {
				t.Fatalf("partitioner %q reports name %q", name, pr.Name())
			}
			a, err := pr.Partition(ds, params(workers, 1))
			if err != nil {
				t.Fatal(err)
			}
			if len(a) != workers {
				t.Fatalf("%d lists for %d workers", len(a), workers)
			}
			// Determinism: same seed → identical assignment, bit for bit.
			b, err := pr.Partition(ds, params(workers, 1))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Error("same seed produced different assignments")
			}
			var all []int
			for w, idx := range a {
				if len(idx) == 0 {
					t.Errorf("worker %d empty", w)
				}
				all = append(all, idx...)
			}
			if name == "iid" {
				if len(all) != workers*ds.Len() {
					t.Fatalf("iid assigned %d indices, want the full range per worker", len(all))
				}
				return
			}
			// Exactly-once covering.
			if len(all) != ds.Len() {
				t.Fatalf("assigned %d indices, dataset has %d", len(all), ds.Len())
			}
			sort.Ints(all)
			for i, v := range all {
				if v != i {
					t.Fatalf("covering broken at position %d: index %d", i, v)
				}
			}
			// A different seed must re-deal the points.
			c, err := pr.Partition(ds, params(workers, 2))
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(a, c) {
				t.Error("different seeds produced identical assignments")
			}
		})
	}
}

// purity is a worker's majority-label fraction: 0.5 is perfectly mixed
// binary data, 1.0 a single-class worker.
func purity(ds *data.Dataset, idx []int) float64 {
	var ones float64
	for _, i := range idx {
		ones += ds.Point(i).Y
	}
	p := ones / float64(len(idx))
	return math.Max(p, 1-p)
}

func meanPurity(ds *data.Dataset, assign [][]int) float64 {
	var s float64
	for _, idx := range assign {
		s += purity(ds, idx)
	}
	return s / float64(len(assign))
}

// Dirichlet label skew must respond to β: tiny β concentrates labels (high
// purity), huge β approaches the IID class mixture (purity near the 0.5 of
// balanced binary data).
func TestDirichletSkewBounds(t *testing.T) {
	ds := testDataset(t, 2000)
	const workers = 10
	run := func(beta float64, seed uint64) float64 {
		a, err := (Dirichlet{}).Partition(ds, Params{Workers: workers, Seed: seed, Beta: beta})
		if err != nil {
			t.Fatal(err)
		}
		return meanPurity(ds, a)
	}
	var skewed, mixed float64
	const seeds = 5
	for seed := uint64(1); seed <= seeds; seed++ {
		skewed += run(0.05, seed) / seeds
		mixed += run(100, seed) / seeds
	}
	if skewed < 0.8 {
		t.Errorf("beta=0.05 mean purity %.3f, want >= 0.8 (label skew too weak)", skewed)
	}
	if mixed > 0.62 {
		t.Errorf("beta=100 mean purity %.3f, want <= 0.62 (should be near-IID)", mixed)
	}
	if skewed <= mixed {
		t.Errorf("purity not monotone in beta: %.3f (0.05) vs %.3f (100)", skewed, mixed)
	}
}

// One label-sorted shard per worker on balanced binary data means at most
// one worker straddles the class boundary: everyone else is single-class.
func TestShardSkew(t *testing.T) {
	ds := testDataset(t, 1000)
	const workers = 8
	a, err := (Shard{}).Partition(ds, Params{Workers: workers, Seed: 3, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	pure := 0
	for _, idx := range a {
		if purity(ds, idx) == 1 {
			pure++
		}
	}
	if pure < workers-1 {
		t.Errorf("%d/%d single-class workers, want >= %d", pure, workers, workers-1)
	}
	// Shard sizes stay balanced: the skew is in labels, not counts.
	for w, idx := range a {
		if len(idx) < ds.Len()/workers-1 || len(idx) > ds.Len()/workers+1 {
			t.Errorf("worker %d has %d points, want ~%d", w, len(idx), ds.Len()/workers)
		}
	}
}

// Quantity must produce the configured power-law size profile while keeping
// every worker non-empty.
func TestQuantitySizeProfile(t *testing.T) {
	ds := testDataset(t, 3000)
	const workers = 6
	const alpha = 1.5
	a, err := (Quantity{}).Partition(ds, Params{Workers: workers, Seed: 5, Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i := 0; i < workers; i++ {
		sum += math.Pow(float64(i+1), -alpha)
	}
	for w, idx := range a {
		want := float64(ds.Len()) * math.Pow(float64(w+1), -alpha) / sum
		if math.Abs(float64(len(idx))-want) > 1.5 {
			t.Errorf("worker %d has %d points, want %.1f (power law alpha=%v)", w, len(idx), want, alpha)
		}
	}
	for w := 1; w < workers; w++ {
		if len(a[w]) > len(a[w-1]) {
			t.Errorf("sizes not decreasing: worker %d has %d > worker %d's %d",
				w, len(a[w]), w-1, len(a[w-1]))
		}
	}
}

// The partitioners guarantee a non-empty shard per worker even in regimes
// that starve some workers (tiny datasets, extreme skew).
func TestNoEmptyWorkersUnderStress(t *testing.T) {
	ds := testDataset(t, 17)
	for _, name := range Names() {
		if name == "iid" { // shares the full set, so disjointness does not apply
			continue
		}
		pr, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 20; seed++ {
			a, err := pr.Partition(ds, Params{Workers: 16, Seed: seed, Beta: 0.01, Shards: 1, Alpha: 3})
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			for w, idx := range a {
				if len(idx) == 0 {
					t.Fatalf("%s seed %d: worker %d empty", name, seed, w)
				}
			}
		}
	}
}

// Structural error cases fail loudly.
func TestPartitionErrors(t *testing.T) {
	ds := testDataset(t, 10)
	if _, err := New("bogus"); err == nil { //dpbyz:unregistered
		t.Error("unknown partitioner accepted")
	}
	for _, name := range Names() {
		pr, _ := New(name)
		if _, err := pr.Partition(ds, Params{Workers: 0, Seed: 1}); err == nil {
			t.Errorf("%s accepted zero workers", name)
		}
		if _, err := pr.Partition(nil, Params{Workers: 2, Seed: 1}); err == nil {
			t.Errorf("%s accepted a nil dataset", name)
		}
	}
	for _, name := range Names() {
		if name == "iid" { // shares the full set, so disjointness does not apply
			continue
		}
		pr, _ := New(name)
		if _, err := pr.Partition(ds, Params{Workers: 11, Seed: 1}); err == nil {
			t.Errorf("%s accepted more workers than points", name)
		}
	}
	if _, err := (Shard{}).Partition(ds, Params{Workers: 4, Seed: 1, Shards: 5}); err == nil {
		t.Error("shard accepted more shards than points")
	}
}

// Split materializes per-worker datasets consistent with the assignment.
func TestSplitDatasets(t *testing.T) {
	ds := testDataset(t, 101)
	shards, err := Split("dirichlet", ds, Params{Workers: 5, Seed: 9, Beta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var total int
	for _, s := range shards {
		total += s.Len()
		if s.Dim() != ds.Dim() {
			t.Errorf("shard dim %d, want %d", s.Dim(), ds.Dim())
		}
	}
	if total != ds.Len() {
		t.Errorf("shards hold %d points, dataset has %d", total, ds.Len())
	}
}
