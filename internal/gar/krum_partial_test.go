package gar

import (
	"sort"
	"testing"

	"dpbyz/internal/randx"
)

// referenceKrumScores is the pre-optimization krumScoresInto: full sort of
// every gathered neighbour row, ascending sum of the k-prefix. It exists
// only as the bit-identity oracle for the partial-selection kernel.
func referenceKrumScores(grads [][]float64, f int) []float64 {
	n := len(grads)
	gram, err := pairwiseMatrix(grads)
	if err != nil {
		panic(err)
	}
	k := n - f - 2
	scores := make([]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				row = append(row, gram[i][j])
			}
		}
		sort.Float64s(row)
		var sum float64
		for _, d := range row[:k] {
			sum += d
		}
		scores[i] = sum
	}
	return scores
}

// TestKrumScoresPartialSelectionBitIdentical pins the partial-selection
// kernel to the sorted-row reference, bit for bit, on the battery fixtures —
// Gaussian clouds, clouds with planted outliers, and clouds dense with
// exact ties (colluding Byzantine submissions are identical vectors, so tied
// distances are the norm, not the edge case).
func TestKrumScoresPartialSelectionBitIdentical(t *testing.T) {
	type fixture struct {
		name  string
		grads [][]float64
		f     int
	}
	var fixtures []fixture
	for seed := uint64(1); seed <= 5; seed++ {
		cloud, _ := gaussianCloud(randx.New(seed), propertyN, propertyD, 1)
		fixtures = append(fixtures,
			fixture{"gaussian", cloud, propertyF},
			fixture{"outliers", cloudWithOutliers(13, 2, 31, 1, 0.3, 25, seed), 2},
		)
	}
	// Colluders: 5 of 11 workers submit the identical vector.
	tied, _ := gaussianCloud(randx.New(99), 11, 16, 1)
	for i := 1; i < 5; i++ {
		copy(tied[i], tied[0])
	}
	fixtures = append(fixtures, fixture{"colluders", tied, 2})

	for _, fx := range fixtures {
		want := referenceKrumScores(fx.grads, fx.f)
		s := getScratch()
		got := krumScoresInto(s, fx.grads, fx.f)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: score[%d] = %v, reference %v", fx.name, i, got[i], want[i])
			}
		}
		putScratch(s)
	}
}
