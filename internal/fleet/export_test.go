package fleet

import (
	"encoding/json"
	"fmt"

	"dpbyz/internal/spec"
)

// Helpers that only this package's tests call.

// Event decodes the event at index i.
func (l *EventLog) Event(i int) (Event, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i < 0 || i >= len(l.lines) {
		return Event{}, fmt.Errorf("fleet: event index %d outside log of %d", i, len(l.lines))
	}
	var ev Event
	if err := json.Unmarshal(l.lines[i], &ev); err != nil {
		return Event{}, fmt.Errorf("fleet: decode event %d: %w", i, err)
	}
	return ev, nil
}

// Finished returns a channel that closes when the run reaches a terminal
// state (or the service stops with the run still in flight).
func (s *Service) Finished(id spec.RunID) (<-chan struct{}, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[id]
	if !ok {
		return nil, ErrNoRun
	}
	return r.finished, nil
}
