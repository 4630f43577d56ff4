package gar

import (
	"errors"
	"fmt"
	"math"

	"dpbyz/internal/dp"
	"dpbyz/internal/vecmath"
)

// This file implements the paper's VN-ratio machinery: the empirical
// variance-to-norm ratio of Eq. 2, its DP-adjusted form of Eq. 8, and the
// analytical Table-1 necessary conditions (Propositions 1–3).

// EmpiricalVNRatio estimates the VN ratio √(E‖G − E[G]‖²) / ‖E[G]‖ from a
// sample of honest gradients. It returns +Inf when the mean gradient is the
// zero vector (the condition is then unsatisfiable for any finite variance).
func EmpiricalVNRatio(honest [][]float64) (float64, error) {
	// Adding d·0 = +0 to a sum of squares is exact: the bits are those of
	// the variance loop alone.
	return DPAdjustedVNRatio(honest, 0)
}

// DPAdjustedVNRatio applies Eq. 8: it inflates an honest-gradient variance
// estimate by the DP noise term d·s² (equivalently 8dG²max·log(1.25/δ)/(ε²b²))
// before dividing by the mean-gradient norm.
func DPAdjustedVNRatio(honest [][]float64, noisePerCoordVariance float64) (float64, error) {
	if len(honest) < 2 {
		return 0, errors.New("gar: need at least 2 gradients to estimate the VN ratio")
	}
	if noisePerCoordVariance < 0 {
		return 0, fmt.Errorf("gar: negative noise variance %v", noisePerCoordVariance)
	}
	mean, err := vecmath.Mean(honest)
	if err != nil {
		return 0, err
	}
	var variance float64
	for _, g := range honest {
		variance += vecmath.SqDist(g, mean)
	}
	variance /= float64(len(honest))
	d := float64(len(mean))
	variance += d * noisePerCoordVariance
	normMean := vecmath.Norm(mean)
	if normMean == 0 {
		return math.Inf(1), nil
	}
	return math.Sqrt(variance) / normMean, nil
}

// VNConditionHolds reports whether the (possibly DP-adjusted) VN ratio
// satisfies the sufficient resilience condition ratio <= k_F(n, f) for g.
func VNConditionHolds(g GAR, ratio float64) bool {
	kf := g.KF()
	return kf > 0 && ratio <= kf
}

// PrivacyConstant returns C = ε/√(log(1.25/δ)), the constant the paper's
// Propositions 1–3 are phrased in.
func PrivacyConstant(b dp.Budget) (float64, error) {
	if err := b.Validate(); err != nil {
		return 0, err
	}
	return b.Epsilon / math.Sqrt(math.Log(1.25/b.Delta)), nil
}

// MaxByzFracMDA returns the Proposition 1 threshold: under DP noise the VN
// condition for MDA can only hold when f/n <= C·b / (8√d + C·b).
func MaxByzFracMDA(batch int, dim int, c float64) (float64, error) {
	if err := checkThresholdArgs(batch, dim, c); err != nil {
		return 0, err
	}
	cb := c * float64(batch)
	return cb / (8*math.Sqrt(float64(dim)) + cb), nil
}

// MinBatchKrum returns the Proposition 2 threshold for F ∈ {Krum, Bulyan}:
// the VN condition can only hold when b >= √(16·d·(n + f²)) / C.
func MinBatchKrum(n, f, dim int, c float64) (float64, error) {
	if err := checkNF(n, f); err != nil {
		return 0, err
	}
	if dim <= 0 || c <= 0 {
		return 0, fmt.Errorf("gar: invalid dim %d or constant %v", dim, c)
	}
	nf, ff := float64(n), float64(f)
	return math.Sqrt(16*float64(dim)*(nf+ff*ff)) / c, nil
}

// MinBatchMedian returns the Proposition 2 threshold for the Median:
// b >= √(4·d·(n + 1)) / C.
func MinBatchMedian(n, dim int, c float64) (float64, error) {
	if n < 1 || dim <= 0 || c <= 0 {
		return 0, fmt.Errorf("gar: invalid args n=%d dim=%d c=%v", n, dim, c)
	}
	return math.Sqrt(4*float64(dim)*float64(n+1)) / c, nil
}

// MinBatchMeamed returns the Proposition 2 threshold for Meamed:
// b >= √(40·d·(n + 1)) / C.
func MinBatchMeamed(n, dim int, c float64) (float64, error) {
	if n < 1 || dim <= 0 || c <= 0 {
		return 0, fmt.Errorf("gar: invalid args n=%d dim=%d c=%v", n, dim, c)
	}
	return math.Sqrt(40*float64(dim)*float64(n+1)) / c, nil
}

// MaxByzFracTrimmedMean returns the Proposition 3 threshold for Trimmed
// Mean: f/n <= C²b² / (16d + 2C²b²).
func MaxByzFracTrimmedMean(batch int, dim int, c float64) (float64, error) {
	if err := checkThresholdArgs(batch, dim, c); err != nil {
		return 0, err
	}
	c2b2 := c * c * float64(batch) * float64(batch)
	return c2b2 / (16*float64(dim) + 2*c2b2), nil
}

// MaxByzFracPhocas returns the Proposition 3 threshold for Phocas:
// f/n <= C²b² / (64d + 2C²b²).
func MaxByzFracPhocas(batch int, dim int, c float64) (float64, error) {
	if err := checkThresholdArgs(batch, dim, c); err != nil {
		return 0, err
	}
	c2b2 := c * c * float64(batch) * float64(batch)
	return c2b2 / (64*float64(dim) + 2*c2b2), nil
}

func checkThresholdArgs(batch, dim int, c float64) error {
	if batch <= 0 {
		return fmt.Errorf("gar: non-positive batch %d", batch)
	}
	if dim <= 0 {
		return fmt.Errorf("gar: non-positive dim %d", dim)
	}
	if c <= 0 {
		return fmt.Errorf("gar: non-positive privacy constant %v", c)
	}
	return nil
}

// Table1Row captures one row of the reproduced Table 1 for a given (n, f,
// b, d, budget): the rule's name, its k_F value, the analytical threshold
// (interpreted per Kind), and whether the paper's necessary condition is
// met by the supplied configuration.
type Table1Row struct {
	Rule string
	// Kind is "min-batch" (thresholds on b) or "max-byz-frac" (thresholds
	// on f/n).
	Kind string
	// KF is the rule's VN-ratio bound k_F(n, f).
	KF float64
	// Threshold is the analytical bound: a minimum batch size or a maximum
	// Byzantine fraction depending on Kind.
	Threshold float64
	// Satisfied reports whether the configuration (b, f/n) meets the
	// necessary condition.
	Satisfied bool
}

// Table1 reproduces the paper's Table 1 for a concrete configuration:
// system size n, Byzantine bound f, batch size b, model size d and per-step
// privacy budget. Rules whose (n, f) constraints fail are skipped.
func Table1(n, f, batch, dim int, budget dp.Budget) ([]Table1Row, error) {
	c, err := PrivacyConstant(budget)
	if err != nil {
		return nil, err
	}
	if err := checkThresholdArgs(batch, dim, c); err != nil {
		return nil, err
	}
	if err := checkNF(n, f); err != nil {
		return nil, err
	}
	frac := float64(f) / float64(n)
	var rows []Table1Row

	appendMinBatch := func(g GAR, threshold float64) {
		rows = append(rows, Table1Row{
			Rule:      g.Name(),
			Kind:      "min-batch",
			KF:        g.KF(),
			Threshold: threshold,
			Satisfied: float64(batch) >= threshold,
		})
	}
	appendMaxFrac := func(g GAR, threshold float64) {
		rows = append(rows, Table1Row{
			Rule:      g.Name(),
			Kind:      "max-byz-frac",
			KF:        g.KF(),
			Threshold: threshold,
			Satisfied: frac <= threshold,
		})
	}

	if g, err := NewKrum(n, f); err == nil {
		t, terr := MinBatchKrum(n, f, dim, c)
		if terr != nil {
			return nil, terr
		}
		appendMinBatch(g, t)
	}
	if g, err := NewBulyan(n, f); err == nil {
		t, terr := MinBatchKrum(n, f, dim, c)
		if terr != nil {
			return nil, terr
		}
		appendMinBatch(g, t)
	}
	if g, err := NewMedian(n, f); err == nil {
		t, terr := MinBatchMedian(n, dim, c)
		if terr != nil {
			return nil, terr
		}
		appendMinBatch(g, t)
	}
	if g, err := NewMeamed(n, f); err == nil {
		t, terr := MinBatchMeamed(n, dim, c)
		if terr != nil {
			return nil, terr
		}
		appendMinBatch(g, t)
	}
	if g, err := NewMDA(n, f); err == nil {
		t, terr := MaxByzFracMDA(batch, dim, c)
		if terr != nil {
			return nil, terr
		}
		appendMaxFrac(g, t)
	}
	if g, err := NewTrimmedMean(n, f); err == nil {
		t, terr := MaxByzFracTrimmedMean(batch, dim, c)
		if terr != nil {
			return nil, terr
		}
		appendMaxFrac(g, t)
	}
	if g, err := NewPhocas(n, f); err == nil {
		t, terr := MaxByzFracPhocas(batch, dim, c)
		if terr != nil {
			return nil, terr
		}
		appendMaxFrac(g, t)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("gar: no rule admits n=%d, f=%d", n, f)
	}
	return rows, nil
}
