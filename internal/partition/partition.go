// Package partition implements deterministic dataset partitioners: the
// name-keyed registry behind the Spec's "partition" field, assigning every
// training point to a worker so that heterogeneous (non-IID) data regimes —
// exactly where the paper's (α, f)-resilience conditions are most fragile —
// become one more serializable scenario axis.
//
// Four partitioners are registered:
//
//   - "iid": every worker samples the full training set — the paper's IID
//     baseline and the historical behaviour of runs without a partition.
//   - "dirichlet": label-skew via per-class Dirichlet(β) worker proportions
//     (Hsu et al. 2019). Small β concentrates each class on few workers;
//     large β approaches IID.
//   - "shard": sort-by-label K-shards (the FedAvg pathological split of
//     McMahan et al. 2017): points sorted by label are cut into
//     Shards·workers contiguous shards and dealt Shards per worker.
//   - "quantity": power-law sample counts — worker i receives a share
//     proportional to (i+1)^(−α), with IID label composition.
//
// Every partitioner is a pure function of (dataset, Params): the same seed
// yields the same assignment on every host and backend, so a partitioned
// Spec stays bit-reproducible and the local and cluster backends see
// identical per-worker datasets.
//
//dpbyz:deterministic
package partition

import (
	"errors"
	"fmt"
	"sort"

	"dpbyz/internal/data"
	"dpbyz/internal/randx"
)

// Params carries the partitioner parameters referenced by a Spec. Unused
// fields are ignored by partitioners that do not consume them; zero values
// select the documented defaults.
type Params struct {
	// Workers is the number of partitions n (required, positive).
	Workers int
	// Seed drives every random choice of the partitioner.
	Seed uint64
	// Beta is the Dirichlet concentration β (dirichlet only; default
	// DefaultBeta). Smaller is more skewed.
	Beta float64
	// Shards is the number of label-sorted shards per worker (shard only;
	// default DefaultShards).
	Shards int
	// Alpha is the power-law exponent of the per-worker sample counts
	// (quantity only; default DefaultAlpha). Larger is more imbalanced.
	Alpha float64
}

// Parameter defaults.
const (
	DefaultBeta   = 0.5
	DefaultShards = 2
	DefaultAlpha  = 1.0
)

// Stream-derivation salts, one per partitioner, so the same seed drives
// independent choices in each.
const (
	saltIID       = 0x494944     // "IID"
	saltDirichlet = 0x444952     // "DIR"
	saltShard     = 0x534841     // "SHA"
	saltQuantity  = 0x515459     // "QTY"
	saltClass     = 0x434c415353 // "CLASS"
)

// Partitioner deterministically assigns every dataset index to a worker.
type Partitioner interface {
	// Name identifies the partitioner (lower-case, stable; used by the
	// registry and the Spec).
	Name() string
	// Partition returns p.Workers index lists. For the disjoint partitioners
	// (everything except "iid") the lists cover every dataset index exactly
	// once and each list is non-empty; "iid" returns the full index range for
	// every worker. The dataset is not mutated.
	Partition(ds *data.Dataset, p Params) ([][]int, error)
}

// Validation errors, matchable with errors.Is.
var (
	ErrBadWorkerCount = errors.New("partition: invalid worker count")
	ErrTooFewPoints   = errors.New("partition: dataset smaller than worker count")
)

// registry maps partitioner names to instances. All partitioners are
// stateless values, so sharing instances is safe; the map is read-only after
// initialisation.
var registry = map[string]Partitioner{
	"iid":       IID{},
	"dirichlet": Dirichlet{},
	"shard":     Shard{},
	"quantity":  Quantity{},
}

// New returns the named partitioner.
func New(name string) (Partitioner, error) {
	p, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("partition: unknown partitioner %q (known: %v)", name, Names())
	}
	return p, nil
}

// Names returns the sorted registered partitioner names.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Split materializes the named partition as per-worker datasets: the
// assignment of New(name).Partition followed by a data.Subset per worker.
func Split(name string, ds *data.Dataset, p Params) ([]*data.Dataset, error) {
	pr, err := New(name)
	if err != nil {
		return nil, err
	}
	assign, err := pr.Partition(ds, p)
	if err != nil {
		return nil, err
	}
	out := make([]*data.Dataset, len(assign))
	for i, idx := range assign {
		out[i], err = ds.Subset(idx)
		if err != nil {
			return nil, fmt.Errorf("partition: worker %d: %w", i, err)
		}
	}
	return out, nil
}

// checkArgs validates the arguments common to every partitioner. Disjoint
// partitioners additionally need at least one point per worker.
func checkArgs(ds *data.Dataset, p Params, disjoint bool) error {
	if ds == nil || ds.Len() == 0 {
		return data.ErrEmptyDataset
	}
	if p.Workers < 1 {
		return fmt.Errorf("%w: %d", ErrBadWorkerCount, p.Workers)
	}
	if disjoint && ds.Len() < p.Workers {
		return fmt.Errorf("%w: %d points for %d workers", ErrTooFewPoints, ds.Len(), p.Workers)
	}
	return nil
}

// IID is the identity partition: every worker's list is the full index
// range, so each worker samples the complete training set — the paper's IID
// baseline and the behaviour of Specs without a partition field.
type IID struct{}

var _ Partitioner = IID{}

// Name implements Partitioner.
func (IID) Name() string { return "iid" }

// Partition implements Partitioner.
func (IID) Partition(ds *data.Dataset, p Params) ([][]int, error) {
	if err := checkArgs(ds, p, false); err != nil {
		return nil, err
	}
	out := make([][]int, p.Workers)
	for w := range out {
		idx := make([]int, ds.Len())
		for i := range idx {
			idx[i] = i
		}
		out[w] = idx
	}
	return out, nil
}

// labelGroups buckets dataset indices by label, in ascending label order.
// Binary (and any small discrete) label sets group by exact value; when the
// labels look continuous (more than maxDiscreteLabels distinct values, e.g.
// regression targets), the points are bucketed into quantile classes so the
// label-skew partitioners stay meaningful.
const maxDiscreteLabels = 16

func labelGroups(ds *data.Dataset) [][]int {
	distinct := make(map[float64][]int)
	for i := 0; i < ds.Len(); i++ {
		y := ds.Point(i).Y
		distinct[y] = append(distinct[y], i)
	}
	if len(distinct) <= maxDiscreteLabels {
		labels := make([]float64, 0, len(distinct))
		for y := range distinct {
			labels = append(labels, y)
		}
		sort.Float64s(labels)
		out := make([][]int, len(labels))
		for i, y := range labels {
			out[i] = distinct[y]
		}
		return out
	}
	// Continuous labels: sort indices by (Y, index) and cut into
	// maxDiscreteLabels quantile buckets.
	idx := sortedByLabel(ds)
	buckets := maxDiscreteLabels
	if buckets > len(idx) {
		buckets = len(idx)
	}
	out := make([][]int, 0, buckets)
	for _, cut := range cutCounts(len(idx), buckets) {
		out = append(out, idx[:cut])
		idx = idx[cut:]
	}
	return out
}

// sortedByLabel returns the dataset indices ordered by (label, index) — a
// deterministic total order even with duplicate labels.
func sortedByLabel(ds *data.Dataset) []int {
	idx := make([]int, ds.Len())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ya, yb := ds.Point(idx[a]).Y, ds.Point(idx[b]).Y
		if ya != yb {
			return ya < yb
		}
		return idx[a] < idx[b]
	})
	return idx
}

// cutCounts splits total into parts near-equal integer counts (each at least
// one while total allows), deterministically.
func cutCounts(total, parts int) []int {
	out := make([]int, parts)
	base, rem := total/parts, total%parts
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}

// apportion splits total points across weights by the largest-remainder
// method: counts sum to total, ties break toward lower indices, and every
// worker with positive weight mass competes fairly. Weights must be
// non-negative with a positive sum.
func apportion(total int, weights []float64) []int {
	var sum float64
	for _, w := range weights {
		sum += w
	}
	counts := make([]int, len(weights))
	if sum <= 0 {
		// Degenerate weight vector: fall back to near-equal counts.
		copy(counts, cutCounts(total, len(weights)))
		return counts
	}
	type frac struct {
		i int
		f float64
	}
	rems := make([]frac, len(weights))
	assigned := 0
	for i, w := range weights {
		exact := float64(total) * w / sum
		counts[i] = int(exact)
		assigned += counts[i]
		rems[i] = frac{i: i, f: exact - float64(counts[i])}
	}
	sort.SliceStable(rems, func(a, b int) bool {
		if rems[a].f != rems[b].f {
			return rems[a].f > rems[b].f
		}
		return rems[a].i < rems[b].i
	})
	for k := 0; k < total-assigned; k++ {
		counts[rems[k%len(rems)].i]++
	}
	return counts
}

// repairEmpty guarantees every worker at least one index by moving single
// points from the richest workers to the empty ones, deterministically
// (lowest empty index first, richest donor with ties toward lower index).
// The caller guarantees len(points) >= len(assign) overall.
func repairEmpty(assign [][]int) {
	for w := range assign {
		if len(assign[w]) > 0 {
			continue
		}
		donor, most := -1, 1
		for d := range assign {
			if len(assign[d]) > most {
				donor, most = d, len(assign[d])
			}
		}
		if donor < 0 {
			return // nothing to donate; caller validated totals
		}
		last := len(assign[donor]) - 1
		assign[w] = append(assign[w], assign[donor][last])
		assign[donor] = assign[donor][:last]
	}
}

// stream returns the partitioner-local randomness stream for a seed.
func stream(seed, salt uint64) *randx.Stream {
	return randx.New(seed ^ salt)
}
