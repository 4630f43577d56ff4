package vecmath

import "errors"

// TrimmedCoordMeanInto stores the coordinate-wise b-trimmed mean of vs into
// dst without allocating gradient-sized scratch: on each coordinate the b
// largest and b smallest values are discarded and the remaining n-2b values
// averaged. This is the Trimmed Mean aggregation primitive of Yin et al.
// (2018). It returns an error when 2b >= len(vs).
//
// Non-finite inputs are ordered, not rejected: on every coordinate NaN sorts
// before −Inf (the sort.Float64s order) and is trimmed with the b smallest
// values, so up to b rows submitting NaN or ±Inf leave the result finite and
// inside the range of the remaining rows (see CoordMedianInto).
func TrimmedCoordMeanInto(dst []float64, vs [][]float64, b int) error {
	n := len(vs)
	if n == 0 {
		return errors.New("vecmath: trimmed mean of zero vectors")
	}
	if b < 0 {
		return errors.New("vecmath: negative trim count")
	}
	if 2*b >= n {
		return errors.New("vecmath: trim count too large")
	}
	if _, err := checkDst(dst, vs); err != nil {
		return err
	}
	reduceSortedColumns(dst, vs, colReduce{op: opTrimmedMean, trim: b})
	return nil
}

// MeanAroundMedianInto stores the per-coordinate average of the m values
// closest to the coordinate-wise median of vs into dst without allocating
// gradient-sized scratch. This is the "Meamed" primitive of Xie et al.
// (2018). It returns an error when m is outside [1, len(vs)].
func MeanAroundMedianInto(dst []float64, vs [][]float64, m int) error {
	n := len(vs)
	if n == 0 {
		return errors.New("vecmath: meamed of zero vectors")
	}
	if m < 1 || m > n {
		return errors.New("vecmath: meamed count out of range")
	}
	if _, err := checkDst(dst, vs); err != nil {
		return err
	}
	reduceSortedColumns(dst, vs, colReduce{op: opMeamed, m: m})
	return nil
}
