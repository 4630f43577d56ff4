package checkpoint

import (
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dpbyz/internal/randx"
)

func sampleRunState() *RunState {
	ar := randx.New(3).State()
	return &RunState{
		Version:   RunStateVersion,
		Backend:   "local",
		Spec:      json.RawMessage(`{"version": 1, "steps": 60}`),
		Step:      25,
		Params:    []float64{1, 2, 3},
		Velocity:  []float64{0.1, 0.2, 0.3},
		AttackRng: &ar,
		Workers: []WorkerRunState{
			{Batch: randx.New(1).State(), Noise: randx.New(2).State(), Momentum: []float64{4, 5, 6}},
			{Batch: randx.New(4).State(), Noise: randx.New(5).State()},
		},
	}
}

func TestRunStateSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	want := sampleRunState()
	if err := SaveRunState(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRunState(path)
	if err != nil {
		t.Fatal(err)
	}
	// Compare through re-encoding: RawMessage formatting may differ.
	a, _ := json.Marshal(want)
	b, _ := json.Marshal(got)
	if string(a) != string(b) {
		t.Errorf("round trip mismatch:\n%s\n%s", a, b)
	}
	if !reflect.DeepEqual(got.Workers, want.Workers) {
		t.Error("worker state mismatch")
	}
}

func TestRunStateValidate(t *testing.T) {
	for name, mutate := range map[string]func(*RunState){
		"bad version":   func(s *RunState) { s.Version = RunStateVersion + 1 },
		"negative step": func(s *RunState) { s.Step = -1 },
		"no params":     func(s *RunState) { s.Params = nil },
		"velocity dim":  func(s *RunState) { s.Velocity = []float64{1} },
		"momentum dim":  func(s *RunState) { s.Workers[0].Momentum = []float64{1} },
	} {
		s := sampleRunState()
		mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := sampleRunState().Validate(); err != nil {
		t.Errorf("valid state rejected: %v", err)
	}
}

// A version-1 snapshot (stream states with the Box-Muller spare cache) must
// be refused by name, not decoded with the field ignored.
func TestReadRunStateRejectsV1(t *testing.T) {
	const v1 = `{"version":1,"step":3,"params":[0.5],"workers":[{` +
		`"batch":{"s":[1,2,3,4]},"noise":{"s":[5,6,7,8],"spare":0.25,"hasSpare":true}}]}`
	if _, err := ReadRunState(strings.NewReader(v1)); !errors.Is(err, ErrBadRunStateVersion) {
		t.Errorf("v1 snapshot: error = %v, want ErrBadRunStateVersion", err)
	}
}

func TestRunStateCheckSpec(t *testing.T) {
	s := sampleRunState()
	if err := s.CheckSpec("local", []byte(`{"version":1,"steps":60}`)); err != nil {
		t.Errorf("whitespace-insensitive spec match failed: %v", err)
	}
	if err := s.CheckSpec("cluster", s.Spec); err == nil {
		t.Error("backend mismatch accepted")
	}
	if err := s.CheckSpec("local", []byte(`{"version":1,"steps":99}`)); err == nil {
		t.Error("spec mismatch accepted")
	}
	if !errors.Is(func() error {
		bad := sampleRunState()
		bad.Version = 99
		return bad.Validate()
	}(), ErrBadRunStateVersion) {
		t.Error("version error not matchable")
	}
	// Absent sides skip the check (a hand-rolled snapshot without spec
	// provenance still resumes).
	if err := s.CheckSpec("", nil); err != nil {
		t.Errorf("absent sides rejected: %v", err)
	}
}
