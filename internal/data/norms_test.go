package data

import (
	"math"
	"testing"

	"dpbyz/internal/randx"
)

// The construction-time ‖x‖² cache must match a direct computation and
// survive Subset/Split index gathering.
func TestPointSqNormCache(t *testing.T) {
	ds, err := SyntheticPhishing(SyntheticPhishingConfig{N: 200, Features: 7, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	check := func(d *Dataset) {
		t.Helper()
		for i := 0; i < d.Len(); i++ {
			var want float64
			for _, x := range d.Point(i).X {
				want += x * x
			}
			if got := d.xsq[i]; math.Abs(got-want) > 1e-12 {
				t.Fatalf("point %d: cached %v, want %v", i, got, want)
			}
		}
	}
	check(ds)
	sub, err := ds.Subset([]int{5, 0, 199, 42})
	if err != nil {
		t.Fatal(err)
	}
	check(sub)
	train, test, err := ds.Split(150, randx.New(9))
	if err != nil {
		t.Fatal(err)
	}
	check(train)
	check(test)
}

// BatchSqNorms must stay aligned with the batch the last Next returned.
func TestBatchSqNormsAligned(t *testing.T) {
	ds, err := SyntheticPhishing(SyntheticPhishingConfig{N: 100, Features: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBatcher(ds, 8, randx.New(4))
	if err != nil {
		t.Fatal(err)
	}
	for draw := 0; draw < 10; draw++ {
		batch := b.Next()
		norms := b.BatchSqNorms()
		if len(norms) != len(batch) {
			t.Fatalf("norms length %d, batch %d", len(norms), len(batch))
		}
		for i, p := range batch {
			var want float64
			for _, x := range p.X {
				want += x * x
			}
			if math.Abs(norms[i]-want) > 1e-12 {
				t.Fatalf("draw %d point %d: norm %v, want %v", draw, i, norms[i], want)
			}
		}
	}
}
