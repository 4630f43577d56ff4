// Package metrics records per-step training statistics (the loss/accuracy
// series of the paper's Figs 2–4), aggregates them across seeds into
// mean ± std curves, and renders them as CSV for plotting.
package metrics

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
)

// StepRecord is one step's measurements.
type StepRecord struct {
	// Step is the 0-based SGD step index.
	Step int
	// Loss is the average training loss of the honest workers' samples at
	// this step (the paper's metric (2), §5.1).
	Loss float64
	// Accuracy is the test-set cross-accuracy, recorded every AccuracyEvery
	// steps (the paper's metric (1)); NaN when not measured this step.
	Accuracy float64
	// VNRatio is the empirical DP-adjusted VN ratio of the honest gradients
	// at this step; NaN when not measured.
	VNRatio float64
}

// History is the full trajectory of one run.
type History struct {
	records []StepRecord
}

// NewHistory returns a history with room for capacity records, so training
// loops that know their step count append without reallocating.
func NewHistory(capacity int) *History {
	if capacity < 0 {
		capacity = 0
	}
	return &History{records: make([]StepRecord, 0, capacity)}
}

// Append adds a record. Steps should arrive in increasing order; this is
// not enforced so partial traces from failed runs remain usable.
func (h *History) Append(r StepRecord) { h.records = append(h.records, r) }

// Len returns the number of recorded steps.
func (h *History) Len() int { return len(h.records) }

// Record returns the i-th record.
func (h *History) Record(i int) StepRecord { return h.records[i] }

// Records returns the backing slice; callers must treat it as read-only.
func (h *History) Records() []StepRecord { return h.records }

// FinalLoss returns the last recorded loss, or NaN for an empty history.
func (h *History) FinalLoss() float64 {
	if len(h.records) == 0 {
		return math.NaN()
	}
	return h.records[len(h.records)-1].Loss
}

// FinalAccuracy returns the most recent non-NaN accuracy, or NaN if none
// was ever measured.
func (h *History) FinalAccuracy() float64 {
	for i := len(h.records) - 1; i >= 0; i-- {
		if !math.IsNaN(h.records[i].Accuracy) {
			return h.records[i].Accuracy
		}
	}
	return math.NaN()
}

// MinLoss returns the smallest recorded loss and the step it occurred at,
// or (NaN, -1) for an empty history. Figs 2–4 are discussed in terms of
// "the minimum loss is reached in k steps".
func (h *History) MinLoss() (float64, int) {
	if len(h.records) == 0 {
		return math.NaN(), -1
	}
	best, bestStep := h.records[0].Loss, h.records[0].Step
	for _, r := range h.records[1:] {
		if r.Loss < best {
			best, bestStep = r.Loss, r.Step
		}
	}
	return best, bestStep
}

// WriteCSV renders the history with header step,loss,accuracy,vnratio.
// NaN metrics are emitted as empty cells.
func (h *History) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "step,loss,accuracy,vnratio\n"); err != nil {
		return fmt.Errorf("metrics: write header: %w", err)
	}
	for _, r := range h.records {
		line := strconv.Itoa(r.Step) + "," + formatCell(r.Loss) + "," +
			formatCell(r.Accuracy) + "," + formatCell(r.VNRatio) + "\n"
		if _, err := io.WriteString(w, line); err != nil {
			return fmt.Errorf("metrics: write row: %w", err)
		}
	}
	return nil
}

func formatCell(x float64) string {
	if math.IsNaN(x) {
		return ""
	}
	return strconv.FormatFloat(x, 'g', 10, 64)
}

// SeriesStats is a mean ± std summary of one metric across seeds, indexed
// by step.
type SeriesStats struct {
	Steps []int
	Mean  []float64
	Std   []float64
}

// ErrNoHistories is returned when aggregating zero runs.
var ErrNoHistories = errors.New("metrics: no histories to aggregate")

// AggregateLoss combines the loss curves of several same-length runs into a
// mean ± std curve, the quantity the paper plots with shaded bands.
func AggregateLoss(hs []*History) (*SeriesStats, error) {
	return aggregate(hs, func(r StepRecord) float64 { return r.Loss })
}

// AggregateAccuracy combines the accuracy curves of several runs, skipping
// steps where accuracy was not measured.
func AggregateAccuracy(hs []*History) (*SeriesStats, error) {
	filtered := make([]*History, 0, len(hs))
	for _, h := range hs {
		f := &History{}
		for _, r := range h.Records() {
			if !math.IsNaN(r.Accuracy) {
				f.Append(r)
			}
		}
		filtered = append(filtered, f)
	}
	return aggregate(filtered, func(r StepRecord) float64 { return r.Accuracy })
}

func aggregate(hs []*History, metric func(StepRecord) float64) (*SeriesStats, error) {
	if len(hs) == 0 {
		return nil, ErrNoHistories
	}
	n := hs[0].Len()
	for i, h := range hs {
		if h.Len() != n {
			return nil, fmt.Errorf("metrics: history %d has %d steps, want %d", i, h.Len(), n)
		}
	}
	out := &SeriesStats{
		Steps: make([]int, n),
		Mean:  make([]float64, n),
		Std:   make([]float64, n),
	}
	for s := 0; s < n; s++ {
		out.Steps[s] = hs[0].Record(s).Step
		var sum, sumSq float64
		for _, h := range hs {
			v := metric(h.Record(s))
			sum += v
			sumSq += v * v
		}
		m := sum / float64(len(hs))
		out.Mean[s] = m
		variance := sumSq/float64(len(hs)) - m*m
		if variance < 0 {
			variance = 0 // numerical floor
		}
		out.Std[s] = math.Sqrt(variance)
	}
	return out, nil
}

// Final returns the last mean ± std pair, or NaNs for an empty series.
func (s *SeriesStats) Final() (mean, std float64) {
	if len(s.Mean) == 0 {
		return math.NaN(), math.NaN()
	}
	return s.Mean[len(s.Mean)-1], s.Std[len(s.Std)-1]
}
