package spec

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// fullSpec exercises every Spec field, for round-trip tests.
func fullSpec() Spec {
	return Spec{
		Name:              "golden",
		Data:              DataSpec{Source: "synthetic-phishing", N: 600, Features: 10, Seed: 7, TrainN: 450},
		Partition:         &PartitionSpec{Name: "dirichlet", Beta: 0.3, Seed: 11},
		Model:             ModelSpec{Name: "mlp", Hidden: 8},
		GAR:               GARSpec{Name: "trimmedmean", N: 11, F: 2, Kernel: "exact"},
		Topology:          &TopologySpec{Name: "bucketed", BucketSize: 2, Seed: 13},
		Staleness:         &StalenessSpec{Stragglers: 2, Late: "discard"},
		Membership:        &MembershipSpec{MinWorkers: 9, MaxWorkers: 12, FRatio: 0.2, EpochRounds: 10},
		Attack:            &AttackSpec{Name: "alie"},
		Mechanism:         &MechanismSpec{Name: "gaussian", Epsilon: 0.5, Delta: 1e-6},
		Steps:             60,
		BatchSize:         20,
		LearningRate:      2,
		WorkerMomentum:    0.99,
		MomentumPostNoise: true,
		ClipNorm:          0.01,
		Seed:              1,
		AccuracyEvery:     10,
		VNRatioEvery:      5,
	}
}

// The canonical encoding of fullSpec must match the checked-in golden file
// byte for byte, and decode back to the identical value: the serialized form
// is a stable public contract, not an implementation detail.
func TestSpecGoldenRoundTrip(t *testing.T) {
	golden := filepath.Join("testdata", "golden_spec.json")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden file: %v", err)
	}
	got, err := fullSpec().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("canonical encoding drifted from %s:\n--- want ---\n%s--- got ---\n%s",
			golden, want, got)
	}

	parsed, err := Parse(want)
	if err != nil {
		t.Fatal(err)
	}
	expect := fullSpec()
	expect.SchemaVersion = Version
	if !reflect.DeepEqual(*parsed, expect) {
		t.Errorf("golden decode mismatch:\n got %+v\nwant %+v", *parsed, expect)
	}

	// And the parsed value re-encodes to the same bytes (fixpoint).
	again, err := parsed.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(want) {
		t.Error("round-trip is not a fixpoint")
	}
}

func TestSpecUnknownFieldRejected(t *testing.T) {
	for _, doc := range []string{
		`{"version": 1, "stepz": 100}`,
		`{"version": 1, "gar": {"name": "mda", "n": 5, "f": 1, "byzantine": 2}}`,
		`{"version": 1, "data": {"file": "phishing.t"}}`,
		`{"version": 1, "mechanism": {"name": "gaussian", "eps": 0.2}}`,
		`{"version": 1, "membership": {"minWorkers": 2, "evictAfter": 3}}`,
	} {
		if _, err := Parse([]byte(doc)); err == nil {
			t.Errorf("Parse(%s) accepted a document with an unknown field", doc)
		} else if !errors.Is(err, ErrUnknownField) {
			t.Errorf("Parse(%s) error %v, want ErrUnknownField", doc, err)
		}
	}
}

func TestSpecVersionTag(t *testing.T) {
	s := fullSpec()
	s.SchemaVersion = Version + 1
	if err := s.Validate(); !errors.Is(err, ErrBadSpecVersion) {
		t.Errorf("future version accepted: %v", err)
	}
	b, err := fullSpec().JSON()
	if err != nil {
		t.Fatal(err)
	}
	bumped := strings.Replace(string(b), `"version": 1`, `"version": 99`, 1)
	if _, err := Parse([]byte(bumped)); !errors.Is(err, ErrBadSpecVersion) {
		t.Errorf("Parse accepted version 99: %v", err)
	}
	// The zero version means "current" so hand-built specs stay terse.
	s = fullSpec()
	s.SchemaVersion = 0
	if err := s.Validate(); err != nil {
		t.Errorf("zero version rejected: %v", err)
	}
}

func TestSpecValidate(t *testing.T) {
	ok := fullSpec()
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Spec){
		"unknown gar":        func(s *Spec) { s.GAR.Name = "nope" }, //dpbyz:unregistered
		"missing gar":        func(s *Spec) { s.GAR = GARSpec{} },
		"unknown attack":     func(s *Spec) { s.Attack = &AttackSpec{Name: "nope"} }, //dpbyz:unregistered
		"attack with f=0":    func(s *Spec) { s.GAR = GARSpec{Name: "average", N: 7} },
		"unknown mechanism":  func(s *Spec) { s.Mechanism = &MechanismSpec{Name: "nope"} }, //dpbyz:unregistered
		"unknown model":      func(s *Spec) { s.Model = ModelSpec{Name: "resnet"} },        //dpbyz:unregistered
		"mlp without hidden": func(s *Spec) { s.Model = ModelSpec{Name: "mlp"} },
		"unknown source":     func(s *Spec) { s.Data.Source = "imagenet" }, //dpbyz:unregistered
		"libsvm no path":     func(s *Spec) { s.Data = DataSpec{Source: "libsvm"} },
		"zero steps":         func(s *Spec) { s.Steps = 0 },
		"zero batch":         func(s *Spec) { s.BatchSize = 0 },
		"zero lr":            func(s *Spec) { s.LearningRate = 0 },
		"both momenta":       func(s *Spec) { s.Momentum = 0.5 },
		"mech without clip":  func(s *Spec) { s.ClipNorm = 0 },
		"unknown kernel":     func(s *Spec) { s.Topology = nil; s.GAR = GARSpec{Name: "krum", N: 11, F: 2, Kernel: "fast"} }, //dpbyz:unregistered
		"kernel unsupported rule": func(s *Spec) {
			s.Topology = nil
			s.GAR = GARSpec{Name: "trimmedmean", N: 11, F: 2, Kernel: "sketched"}
		},
		"kernel with bucketed topology": func(s *Spec) {
			s.GAR = GARSpec{Name: "krum", N: 11, F: 2, Kernel: "sketched"}
		},
		"sketchDim without sketched": func(s *Spec) {
			s.Topology = nil
			s.GAR = GARSpec{Name: "krum", N: 11, F: 2, SketchDim: 16}
		},
		"negative sketchDim": func(s *Spec) {
			s.Topology = nil
			s.GAR = GARSpec{Name: "krum", N: 11, F: 2, Kernel: "sketched", SketchDim: -1}
		},
	} {
		s := fullSpec()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// The retired kernel is rejected by name with the migration spelled out
	// (a fleet store may still hold a spec.json that selects it), whatever
	// else the GAR block says.
	for _, g := range []GARSpec{
		{Name: "krum", N: 11, F: 2, Kernel: "incremental"},
		{Name: "mda", N: 11, F: 2, Kernel: "incremental", SketchSeed: 5},
	} {
		s := fullSpec()
		s.Topology = nil
		s.GAR = g
		err := s.Validate()
		if err == nil {
			t.Fatalf("retired kernel accepted for %s", g.Name)
		}
		for _, want := range []string{"retired", `"exact"`, "bit-identical"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("retired-kernel error for %s lacks %q: %v", g.Name, want, err)
			}
		}
	}
}

// A minimal spec relies on defaults for everything the paper fixes; it must
// validate and carry the documented defaults through materialization.
func TestSpecDefaults(t *testing.T) {
	s := Spec{
		GAR:          GARSpec{Name: "average", N: 5},
		Steps:        10,
		BatchSize:    20,
		LearningRate: 2,
		Seed:         3,
		Data:         DataSpec{N: 500, Features: 12},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	m, err := s.materialize(&runOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.model.Name(); got != "logistic-mse" {
		t.Errorf("default model %q", got)
	}
	wantTrain := 500 * 8400 / 11055
	if m.train.Len() != wantTrain {
		t.Errorf("default split %d, want %d", m.train.Len(), wantTrain)
	}
	if m.train.Dim() != 12 {
		t.Errorf("train dim %d", m.train.Dim())
	}
	if m.mech != nil || m.attack != nil {
		t.Error("unconfigured mechanism/attack materialized")
	}
}

func TestSpecSaveLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	if err := fullSpec().Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	expect := fullSpec()
	expect.SchemaVersion = Version
	if !reflect.DeepEqual(*loaded, expect) {
		t.Errorf("Load mismatch: %+v", *loaded)
	}
}
