package metrics

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func nan() float64 { return math.NaN() }

func sampleHistory(losses ...float64) *History {
	h := &History{}
	for i, l := range losses {
		h.Append(StepRecord{Step: i, Loss: l, Accuracy: nan(), VNRatio: nan()})
	}
	return h
}

func TestHistoryBasics(t *testing.T) {
	h := sampleHistory(3, 2, 2.5)
	if h.Len() != 3 {
		t.Fatalf("Len = %d", h.Len())
	}
	if got := h.FinalLoss(); got != 2.5 {
		t.Errorf("FinalLoss = %v", got)
	}
	minLoss, step := h.MinLoss()
	if minLoss != 2 || step != 1 {
		t.Errorf("MinLoss = %v at %d", minLoss, step)
	}
	if got := h.Record(0).Loss; got != 3 {
		t.Errorf("Record(0).Loss = %v", got)
	}
}

func TestHistoryEmpty(t *testing.T) {
	h := &History{}
	if !math.IsNaN(h.FinalLoss()) {
		t.Error("FinalLoss of empty history is not NaN")
	}
	if !math.IsNaN(h.FinalAccuracy()) {
		t.Error("FinalAccuracy of empty history is not NaN")
	}
	if _, step := h.MinLoss(); step != -1 {
		t.Error("MinLoss of empty history did not return -1")
	}
}

func TestFinalAccuracySkipsNaN(t *testing.T) {
	h := &History{}
	h.Append(StepRecord{Step: 0, Loss: 1, Accuracy: 0.7, VNRatio: nan()})
	h.Append(StepRecord{Step: 1, Loss: 0.9, Accuracy: nan(), VNRatio: nan()})
	if got := h.FinalAccuracy(); got != 0.7 {
		t.Errorf("FinalAccuracy = %v, want 0.7", got)
	}
}

func TestWriteCSV(t *testing.T) {
	h := &History{}
	h.Append(StepRecord{Step: 0, Loss: 1.5, Accuracy: 0.5, VNRatio: nan()})
	h.Append(StepRecord{Step: 1, Loss: 1.25, Accuracy: nan(), VNRatio: 2})
	var sb strings.Builder
	if err := h.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := "step,loss,accuracy,vnratio\n0,1.5,0.5,\n1,1.25,,2\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestAggregateLoss(t *testing.T) {
	h1 := sampleHistory(1, 2)
	h2 := sampleHistory(3, 4)
	agg, err := AggregateLoss([]*History{h1, h2})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Mean[0] != 2 || agg.Mean[1] != 3 {
		t.Errorf("Mean = %v", agg.Mean)
	}
	if agg.Std[0] != 1 || agg.Std[1] != 1 {
		t.Errorf("Std = %v", agg.Std)
	}
	m, s := agg.Final()
	if m != 3 || s != 1 {
		t.Errorf("Final = %v, %v", m, s)
	}
}

func TestAggregateErrors(t *testing.T) {
	if _, err := AggregateLoss(nil); !errors.Is(err, ErrNoHistories) {
		t.Errorf("error = %v", err)
	}
	if _, err := AggregateLoss([]*History{sampleHistory(1), sampleHistory(1, 2)}); err == nil {
		t.Error("mismatched lengths did not error")
	}
}

func TestAggregateAccuracy(t *testing.T) {
	h1 := &History{}
	h1.Append(StepRecord{Step: 0, Loss: 1, Accuracy: 0.5, VNRatio: nan()})
	h1.Append(StepRecord{Step: 1, Loss: 1, Accuracy: nan(), VNRatio: nan()})
	h1.Append(StepRecord{Step: 2, Loss: 1, Accuracy: 0.9, VNRatio: nan()})
	h2 := &History{}
	h2.Append(StepRecord{Step: 0, Loss: 1, Accuracy: 0.7, VNRatio: nan()})
	h2.Append(StepRecord{Step: 1, Loss: 1, Accuracy: nan(), VNRatio: nan()})
	h2.Append(StepRecord{Step: 2, Loss: 1, Accuracy: 1.0, VNRatio: nan()})
	agg, err := AggregateAccuracy([]*History{h1, h2})
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.Steps) != 2 || agg.Steps[1] != 2 {
		t.Fatalf("Steps = %v", agg.Steps)
	}
	if math.Abs(agg.Mean[0]-0.6) > 1e-12 || math.Abs(agg.Mean[1]-0.95) > 1e-12 {
		t.Errorf("Mean = %v", agg.Mean)
	}
}

func TestSeriesStatsFinal(t *testing.T) {
	s := &SeriesStats{Steps: []int{0, 5}, Mean: []float64{1.5, 0.5}, Std: []float64{0.25, 0.125}}
	if m, sd := s.Final(); m != 0.5 || sd != 0.125 {
		t.Errorf("Final = %v ± %v, want 0.5 ± 0.125", m, sd)
	}
	empty := &SeriesStats{}
	m, sd := empty.Final()
	if !math.IsNaN(m) || !math.IsNaN(sd) {
		t.Error("empty Final not NaN")
	}
}
