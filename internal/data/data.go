// Package data is the dataset substrate. It provides the deterministic
// synthetic stand-in for the paper's phishing dataset (see DESIGN.md §1),
// a LIBSVM parser so the real file can be used when available, the Gaussian
// mean-estimation distribution used by Theorem 1's lower bound, and the
// batch-sampling machinery the workers use each SGD step.
package data

import (
	"errors"
	"fmt"

	"dpbyz/internal/randx"
)

// Point is one labelled example: a dense feature vector and a binary label
// in {0, 1} (or a real target for regression tasks).
type Point struct {
	X []float64
	Y float64
}

// Dataset is an immutable-by-convention collection of points sharing a
// feature dimension. The generators (SyntheticPhishing, GaussianMean,
// TwoGaussians) carve every row from one backing array, each row capped at
// the dimension, so the rows are read-only: a write through one point's X
// lands in the array every Subset, Split half and Batcher batch shares.
type Dataset struct {
	points []Point
	dim    int
	// xsq caches ‖X‖² per point, computed once at construction. The batched
	// gradient kernels use it to price per-sample clipping without an extra
	// pass over the features every step.
	xsq []float64
}

// ErrEmptyDataset is returned by operations that need at least one point.
var ErrEmptyDataset = errors.New("data: empty dataset")

// New builds a dataset from points, validating dimensional consistency.
func New(points []Point) (*Dataset, error) {
	if len(points) == 0 {
		return nil, ErrEmptyDataset
	}
	d := len(points[0].X)
	xsq := make([]float64, len(points))
	for i, p := range points {
		if len(p.X) != d {
			return nil, fmt.Errorf("data: point %d has dim %d, want %d", i, len(p.X), d)
		}
		var s float64
		for _, x := range p.X {
			s += x * x
		}
		xsq[i] = s
	}
	return &Dataset{points: points, dim: d, xsq: xsq}, nil
}

// Len returns the number of points.
func (ds *Dataset) Len() int { return len(ds.points) }

// Dim returns the feature dimension.
func (ds *Dataset) Dim() int { return ds.dim }

// Point returns the i-th point. The returned struct shares the underlying
// feature slice; callers must not mutate it.
func (ds *Dataset) Point(i int) Point { return ds.points[i] }

// Points returns the backing slice. Callers must treat it as read-only.
func (ds *Dataset) Points() []Point { return ds.points }

// Subset returns a dataset view over the given indices.
func (ds *Dataset) Subset(idx []int) (*Dataset, error) {
	if len(idx) == 0 {
		return nil, ErrEmptyDataset
	}
	pts := make([]Point, len(idx))
	xsq := make([]float64, len(idx))
	for i, j := range idx {
		if j < 0 || j >= len(ds.points) {
			return nil, fmt.Errorf("data: index %d out of range [0, %d)", j, len(ds.points))
		}
		pts[i] = ds.points[j]
		xsq[i] = ds.xsq[j]
	}
	return &Dataset{points: pts, dim: ds.dim, xsq: xsq}, nil
}

// Split partitions the dataset into a training set with trainN points and a
// test set with the remainder, after a deterministic shuffle driven by rng.
// This mirrors the paper's 8 400 / 2 655 split of the phishing data.
func (ds *Dataset) Split(trainN int, rng *randx.Stream) (train, test *Dataset, err error) {
	n := ds.Len()
	if trainN <= 0 || trainN >= n {
		return nil, nil, fmt.Errorf("data: train size %d out of range (0, %d)", trainN, n)
	}
	perm := rng.Perm(n)
	trainIdx, testIdx := perm[:trainN], perm[trainN:]
	train, err = ds.Subset(trainIdx)
	if err != nil {
		return nil, nil, err
	}
	test, err = ds.Subset(testIdx)
	if err != nil {
		return nil, nil, err
	}
	return train, test, nil
}

// Batcher draws uniform batches (without replacement within a batch) from a
// dataset, one independent sampler per worker.
type Batcher struct {
	ds    *Dataset
	rng   *randx.Stream
	idx   []int
	batch []Point
	norms []float64
}

// NewBatcher returns a batcher of the given batch size. The batch size is
// capped at the dataset size.
func NewBatcher(ds *Dataset, batchSize int, rng *randx.Stream) (*Batcher, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, ErrEmptyDataset
	}
	if batchSize <= 0 {
		return nil, fmt.Errorf("data: batch size %d must be positive", batchSize)
	}
	if batchSize > ds.Len() {
		batchSize = ds.Len()
	}
	return &Batcher{
		ds:    ds,
		rng:   rng,
		idx:   make([]int, batchSize),
		batch: make([]Point, batchSize),
		norms: make([]float64, batchSize),
	}, nil
}

// Next returns the next random batch. The points are views into the dataset
// and the slice itself is owned by the batcher and reused: it is valid only
// until the next Next call, so the steady-state sampling loop allocates
// nothing. Callers that need to retain a batch across draws must copy it.
func (b *Batcher) Next() []Point {
	b.rng.Sample(b.idx, b.ds.Len())
	for i, j := range b.idx {
		b.batch[i] = b.ds.points[j]
		b.norms[i] = b.ds.xsq[j]
	}
	return b.batch
}

// BatchSqNorms returns ‖X‖² for each point of the most recent Next batch
// (from the dataset's construction-time cache), aligned with that batch and
// owned by the batcher under the same reuse rule.
func (b *Batcher) BatchSqNorms() []float64 { return b.norms }

// RNGState snapshots the batcher's sampling-stream position, for resumable
// training checkpoints. Restoring it with SetRNGState makes future batch
// draws bit-identical to this batcher's.
func (b *Batcher) RNGState() randx.StreamState { return b.rng.State() }

// SetRNGState rewinds the sampling stream to a snapshot taken by RNGState.
func (b *Batcher) SetRNGState(st randx.StreamState) { b.rng.SetState(st) }
