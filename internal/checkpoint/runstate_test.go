package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
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

// A version-2 snapshot still loads: the copies of the ledger it kept beside
// the epoch books are ignored, and the books come through as written.
func TestReadRunStateLoadsV2(t *testing.T) {
	const v2 = `{"version":2,"step":3,"params":[0.5],` +
		`"quorum":{"stragglerRng":{"s":[1,2,3,4]},"accepted":5,"missed":1,"discarded":2,"credited":1},` +
		`"membership":{"epoch":0,"view":[0,1],"f":0,"epochs":[{"epoch":0,"n":2,"f":0,"rounds":3,"accepted":5,"missed":1,"view":[0,1]}]}}`
	st, err := ReadRunState(strings.NewReader(v2))
	if err != nil {
		t.Fatal(err)
	}
	if q, m := st.Quorum, st.Membership; q.Discarded != 2 || q.Credited != 1 || len(m.Epochs) != 1 || m.Epochs[0].Accepted != 5 || m.Streaks != nil {
		t.Errorf("v2 snapshot read as quorum %+v, membership %+v", q, m)
	}
}

// A document that is not a run state — not JSON, or empty — is refused
// with ErrUndecodable.
func TestReadRejectsGarbage(t *testing.T) {
	for _, src := range []string{"not json", ""} {
		if _, err := ReadRunState(strings.NewReader(src)); !errors.Is(err, ErrUndecodable) {
			t.Errorf("%q: error = %v, want ErrUndecodable", src, err)
		}
	}
}

// A missing snapshot's error matches fs.ErrNotExist: the fleet's run
// directory tells "no snapshot yet" from a damaged one by it.
func TestLoadMissingFile(t *testing.T) {
	if _, err := LoadRunState(filepath.Join(t.TempDir(), "absent.json")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("error = %v, want one matching fs.ErrNotExist", err)
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

// A save that cannot write its temporary file returns the error, leaves the
// previous snapshot byte-identical and loadable, and leaves no temporary
// file of its own behind. The obstacle is a directory squatting on
// path+".tmp": a non-empty one survives (it is not the save's to delete), an
// empty one is what a failed write's clean-up removes.
func TestSaveRunStateFailureKeepsPrevious(t *testing.T) {
	for _, nonEmpty := range []bool{true, false} {
		dir := t.TempDir()
		path := filepath.Join(dir, "snapshot.json")
		if err := SaveRunState(path, sampleRunState()); err != nil {
			t.Fatal(err)
		}
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		tmp := path + ".tmp"
		if err := os.Mkdir(tmp, 0o755); err != nil {
			t.Fatal(err)
		}
		if nonEmpty {
			if err := os.WriteFile(filepath.Join(tmp, "squatter"), []byte("x"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		next := sampleRunState()
		next.Step = 50
		if err := SaveRunState(path, next); err == nil {
			t.Fatalf("nonEmpty=%v: save over a blocked temporary path succeeded", nonEmpty)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Errorf("nonEmpty=%v: failed save changed the previous snapshot", nonEmpty)
		}
		if st, err := LoadRunState(path); err != nil || st.Step != 25 {
			t.Errorf("nonEmpty=%v: previous snapshot no longer loads at step 25: %v", nonEmpty, err)
		}
		if _, err := os.Stat(tmp); nonEmpty == errors.Is(err, fs.ErrNotExist) {
			t.Errorf("nonEmpty=%v: temporary path after the failed save: stat error %v", nonEmpty, err)
		}
	}
}

// A snapshot whose state fails Validate is refused before anything touches
// the disk.
func TestSaveRunStateValidatesFirst(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snapshot.json")
	bad := sampleRunState()
	bad.Velocity = []float64{1}
	if err := SaveRunState(path, bad); err == nil {
		t.Fatal("invalid state saved")
	}
	if entries, _ := os.ReadDir(filepath.Dir(path)); len(entries) != 0 {
		t.Errorf("refused save left %d files behind", len(entries))
	}
}

func TestWriteFileAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.json")
	if err := WriteFileAtomic(path, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "v2" {
		t.Fatalf("content %q, want last write", b)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("temporary file left behind")
	}
}
