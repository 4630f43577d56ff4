package spec

import "dpbyz/internal/metrics"

// Helpers that only this package's tests call.

// HistorySink is an in-memory Observer: it accumulates every step into a
// metrics.History, the structure the backends return, so a test can compare
// what an observer saw with the run's result.
type HistorySink struct {
	h *metrics.History
}

// NewHistorySink returns an empty in-memory sink.
func NewHistorySink() *HistorySink {
	return &HistorySink{h: &metrics.History{}}
}

// OnStep implements Observer.
func (s *HistorySink) OnStep(ev StepEvent) error {
	s.h.Append(metrics.StepRecord{
		Step: ev.Step, Loss: ev.Loss, Accuracy: ev.Accuracy, VNRatio: ev.VNRatio,
	})
	return nil
}

// History returns the accumulated trace.
func (s *HistorySink) History() *metrics.History { return s.h }
