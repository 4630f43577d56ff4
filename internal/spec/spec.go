// Package spec defines the one serializable run description — Spec — that
// every execution surface of the repository consumes, and the Backend
// interface that executes it.
//
// A Spec references models, aggregation rules, attacks and DP mechanisms by
// their registry names plus numeric parameters, never by live objects, so
// the same JSON document can drive the in-process simulator
// (LocalBackend), an in-process distributed cluster over a ChanTransport or
// a real TCP deployment (ClusterBackend, ServeSpec/JoinSpec), and the
// experiment grids of internal/experiments. This mirrors the separation the
// self-stabilizing-channels literature argues for: the protocol description
// is one object; the medium it runs over is a pluggable backend.
//
// JSON encoding is strict: unknown fields are rejected at decode time and
// the document carries a schema version tag, so a spec written today keeps
// meaning the same run tomorrow.
package spec

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"dpbyz/internal/attack"
	"dpbyz/internal/data"
	"dpbyz/internal/dp"
	"dpbyz/internal/gar"
	"dpbyz/internal/membership"
	"dpbyz/internal/partition"
)

// Version is the Spec schema version; bump on breaking change.
const Version = 1

// Spec fully describes one training run: data, model, aggregation, threat
// model, privacy mechanism and the optimization hyperparameters. The zero
// value is not runnable; populate at least Model, GAR, Steps, BatchSize and
// LearningRate. Every field is a value — a Spec round-trips through JSON
// losslessly and two runs of the same Spec on the same backend are
// bit-identical.
type Spec struct {
	// SchemaVersion is the Spec schema version. Zero means "current"; any
	// other value must equal Version.
	SchemaVersion int `json:"version"`
	// Name optionally labels the run in logs and reports.
	Name string `json:"name,omitempty"`

	// Data describes the dataset and its train/test split.
	Data DataSpec `json:"data"`
	// Partition, when non-nil, distributes the training split across the
	// GAR.N workers with the named deterministic partitioner — the
	// heterogeneous-data axis. Absent (or "iid") keeps the historical IID
	// behaviour: every worker samples the full training split.
	Partition *PartitionSpec `json:"partition,omitempty"`
	// Model references the learning task by registry name.
	Model ModelSpec `json:"model"`
	// GAR references the aggregation rule by registry name, with the system
	// size (n, f).
	GAR GARSpec `json:"gar"`
	// Topology, when non-nil, selects the server's aggregation topology:
	// "bucketed" deals the workers into seed-derived buckets, averages
	// within each bucket and runs the named GAR over the bucket means —
	// cutting the quadratic rules from O(n²·d) to O((n/s)²·d). Absent (or
	// "flat") aggregates all n submissions directly.
	Topology *TopologySpec `json:"topology,omitempty"`
	// Staleness, when non-nil, enables bounded-staleness quorum rounds: the
	// server fires the aggregate once n − f − stragglers submissions arrive,
	// and one-round-late frames are credited to the next round or discarded.
	Staleness *StalenessSpec `json:"staleness,omitempty"`
	// Membership, when non-nil, enables epoched membership: the cluster
	// server re-derives the worker view, f_e = ⌊fRatio·n_e⌋ and the
	// aggregation rule every epochRounds rounds, admitting joins and
	// evicting crashed or silent workers at epoch boundaries. GAR.N is the
	// initial cohort and must lie in [minWorkers, maxWorkers]; GAR.F must
	// equal ⌊fRatio·GAR.N⌋ so the declared rule matches epoch 0. The local
	// backend mirrors the deterministic half on its fixed cohort (epoch
	// scheduling, per-epoch GAR re-materialization, per-epoch ledgers).
	Membership *MembershipSpec `json:"membership,omitempty"`
	// Attack, when non-nil, makes the first GAR.F workers Byzantine with the
	// named attack.
	Attack *AttackSpec `json:"attack,omitempty"`
	// Mechanism, when non-nil, injects worker-local DP noise with the named
	// mechanism, calibrated from ClipNorm and BatchSize.
	Mechanism *MechanismSpec `json:"mechanism,omitempty"`

	// Steps is the number of synchronous SGD steps.
	Steps int `json:"steps"`
	// BatchSize is each worker's per-step sample size b.
	BatchSize int `json:"batchSize"`
	// LearningRate is the fixed step size γ.
	LearningRate float64 `json:"learningRate"`
	// Momentum is the server-side momentum coefficient. Use at most one of
	// Momentum and WorkerMomentum.
	Momentum float64 `json:"momentum,omitempty"`
	// WorkerMomentum is the worker-side momentum coefficient (the paper's
	// distributed-momentum pipeline).
	WorkerMomentum float64 `json:"workerMomentum,omitempty"`
	// MomentumPostNoise selects the theory-faithful worker ordering
	// (per-sample clip → noise → momentum); see simulate.Config.
	MomentumPostNoise bool `json:"momentumPostNoise,omitempty"`
	// ClipNorm is the gradient clipping bound G_max; zero disables clipping.
	ClipNorm float64 `json:"clipNorm,omitempty"`
	// Seed drives all randomness of the run.
	Seed uint64 `json:"seed"`
	// AccuracyEvery measures test accuracy every k steps (0 disables; only
	// the local backend can measure it — the networked server holds no data).
	AccuracyEvery int `json:"accuracyEvery,omitempty"`
	// VNRatioEvery records the empirical VN ratio every k steps (0 disables;
	// local backend only).
	VNRatioEvery int `json:"vnRatioEvery,omitempty"`
}

// DataSpec describes the dataset by source name and generation parameters.
type DataSpec struct {
	// Source is "synthetic-phishing" (default), "two-gaussians" or "libsvm".
	Source string `json:"source,omitempty"`
	// N is the dataset size (default: the phishing dataset's 11055).
	N int `json:"n,omitempty"`
	// Features is the feature dimension (default: the phishing 68).
	Features int `json:"features,omitempty"`
	// Seed drives dataset synthesis and the split (0 means the run Seed).
	Seed uint64 `json:"seed,omitempty"`
	// Path is the LIBSVM file for Source "libsvm".
	Path string `json:"path,omitempty"`
	// TrainN is the train-split size (default: the paper's 8400/11055
	// proportion of N).
	TrainN int `json:"trainN,omitempty"`
	// Separation is the class-mean distance for "two-gaussians" (default 2).
	Separation float64 `json:"separation,omitempty"`
}

// PartitionSpec references a dataset partitioner by registry name. Exactly
// the parameters the named partitioner consumes need to be set; the zero
// values select the partitioner's documented defaults.
type PartitionSpec struct {
	// Name is a partition registry name (see partition.Names): "iid",
	// "dirichlet", "shard" or "quantity".
	Name string `json:"name"`
	// Beta is the Dirichlet concentration β ("dirichlet"; smaller is more
	// label-skewed; default partition.DefaultBeta).
	Beta float64 `json:"beta,omitempty"`
	// Shards is the label-sorted shard count per worker ("shard"; default
	// partition.DefaultShards).
	Shards int `json:"shards,omitempty"`
	// Alpha is the power-law exponent of the per-worker sample counts
	// ("quantity"; default partition.DefaultAlpha).
	Alpha float64 `json:"alpha,omitempty"`
	// Seed drives the partition assignment (0 means the data seed), so the
	// same scenario can be re-dealt without changing the training streams.
	Seed uint64 `json:"seed,omitempty"`
}

// ModelSpec references a learning task by name.
type ModelSpec struct {
	// Name is "logistic-mse" (default), "logistic-nll", "linear",
	// "mean-estimation" or "mlp".
	Name string `json:"name,omitempty"`
	// Hidden is the MLP hidden width (required for "mlp").
	Hidden int `json:"hidden,omitempty"`
}

// GARSpec references an aggregation rule by registry name for (n, f).
type GARSpec struct {
	// Name is a gar registry name (see gar.Names).
	Name string `json:"name"`
	// N is the total number of workers.
	N int `json:"n"`
	// F is the number of Byzantine workers the rule must tolerate.
	F int `json:"f"`
	// Kernel accepts only "" and "exact" (the full pairwise pass; there is
	// one aggregation path per rule and topology). The retired values
	// "incremental" and "sketched" are rejected by name. The field stays
	// only because bench/specs.go sets it, until ROADMAP item 13 deletes it.
	Kernel string `json:"kernel,omitempty"`
}

// TopologySpec selects the aggregation topology.
type TopologySpec struct {
	// Name is "flat" (default) or "bucketed".
	Name string `json:"name"`
	// BucketSize is the bucket width s for "bucketed" (0 selects
	// gar.DefaultBucketSize). The wrapped rule runs over ⌈n/s⌉ bucket
	// means and must satisfy its own n-vs-f constraint at that count.
	BucketSize int `json:"bucketSize,omitempty"`
	// Seed drives the deterministic worker→bucket deal (0 means the run
	// Seed), so the same scenario can be re-dealt without changing the
	// training streams.
	Seed uint64 `json:"seed,omitempty"`
}

// StalenessSpec enables bounded-staleness quorum rounds.
type StalenessSpec struct {
	// Stragglers is the per-round straggler budget s: the round commits
	// once quorum = n − f − s submissions have arrived. It must leave a
	// positive quorum.
	Stragglers int `json:"stragglers"`
	// Late selects the fate of a frame arriving exactly one round late:
	// "credit" (default) accepts it into the current round when the
	// sender's slot is empty; "discard" drops it. Older frames are always
	// discarded.
	Late string `json:"late,omitempty"`
}

// MembershipSpec enables epoched membership (churn tolerance).
type MembershipSpec struct {
	// MinWorkers is the population floor: the run starts once this many
	// workers joined and aborts if a boundary would leave fewer live.
	MinWorkers int `json:"minWorkers"`
	// MaxWorkers caps the population and the worker-id range [0, MaxWorkers).
	MaxWorkers int `json:"maxWorkers"`
	// FRatio derives each epoch's Byzantine allowance f_e = ⌊fRatio·n_e⌋.
	FRatio float64 `json:"fRatio"`
	// EpochRounds is the epoch boundary spacing in rounds.
	EpochRounds int `json:"epochRounds"`
}

// AttackSpec references a Byzantine attack by registry name.
type AttackSpec struct {
	// Name is an attack registry name (see attack.Names).
	Name string `json:"name"`
}

// MechanismSpec references a DP mechanism by registry name with its budget.
type MechanismSpec struct {
	// Name is a dp registry name (see dp.Names): "gaussian" or "laplace".
	Name string `json:"name"`
	// Epsilon and Delta are the per-step budget. Laplace uses only Epsilon.
	Epsilon float64 `json:"epsilon,omitempty"`
	Delta   float64 `json:"delta,omitempty"`
	// Sigma, when positive, sets the noise scale directly instead of
	// calibrating it from the budget.
	Sigma float64 `json:"sigma,omitempty"`
}

// Spec validation errors, matchable with errors.Is.
var (
	ErrBadSpecVersion = errors.New("spec: unsupported spec version")
	ErrUnknownField   = errors.New("spec: unknown field")
)

// UnmarshalJSON decodes strictly: any field the schema does not define is an
// error, so typos in config files fail loudly instead of silently running a
// different experiment.
func (s *Spec) UnmarshalJSON(b []byte) error {
	type plain Spec // drop methods to avoid recursing into this decoder
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var p plain
	if err := dec.Decode(&p); err != nil {
		if bytes.Contains([]byte(err.Error()), []byte("unknown field")) {
			return fmt.Errorf("%w: %v", ErrUnknownField, err)
		}
		return err
	}
	*s = Spec(p)
	return nil
}

// Parse decodes and validates a Spec from JSON.
func Parse(b []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and validates a Spec from a JSON file.
func Load(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("spec: read %s: %w", path, err)
	}
	s, err := Parse(b)
	if err != nil {
		return nil, fmt.Errorf("spec: %s: %w", path, err)
	}
	return s, nil
}

// JSON returns the canonical indented encoding with the version tag filled.
func (s Spec) JSON() ([]byte, error) {
	s.SchemaVersion = Version
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("spec: encode: %w", err)
	}
	return append(b, '\n'), nil
}

// Defaulting accessors: the JSON stays minimal (zero fields round-trip as
// absent) and the defaults live in exactly one place.

func (d DataSpec) source() string {
	if d.Source == "" {
		return "synthetic-phishing"
	}
	return d.Source
}

func (d DataSpec) n() int {
	if d.N > 0 {
		return d.N
	}
	return data.PhishingSize
}

func (d DataSpec) features() int {
	if d.Features > 0 {
		return d.Features
	}
	return data.PhishingFeatures
}

func (d DataSpec) seed(runSeed uint64) uint64 {
	if d.Seed != 0 {
		return d.Seed
	}
	return runSeed
}

func (d DataSpec) separation() float64 {
	if d.Separation > 0 {
		return d.Separation
	}
	return 2
}

func (m ModelSpec) name() string {
	if m.Name == "" {
		return "logistic-mse"
	}
	return m.Name
}

func (t *TopologySpec) name() string {
	if t == nil || t.Name == "" {
		return "flat"
	}
	return t.Name
}

func (t *TopologySpec) seed(runSeed uint64) uint64 {
	if t.Seed != 0 {
		return t.Seed
	}
	return runSeed
}

func (st *StalenessSpec) late() string {
	if st == nil || st.Late == "" {
		return "credit"
	}
	return st.Late
}

// Quorum returns the bounded-staleness commit threshold n − f − stragglers,
// or 0 when the Spec is fully synchronous.
func (s *Spec) Quorum() int {
	if s.Staleness == nil {
		return 0
	}
	return s.GAR.N - s.GAR.F - s.Staleness.Stragglers
}

// NewGARFactory returns the Spec's (n, f) → aggregation-rule constructor,
// honoring its GAR name and topology: Validate and materialization
// call it at (GAR.N, GAR.F), the epoched-membership modes at every
// boundary. The factory is deterministic: the bucketed deal reuses the
// Spec's topology seed, so the same (n, f) always yields an equivalent
// rule — the property resume bit-identity rests on.
func (s *Spec) NewGARFactory() func(n, f int) (gar.GAR, error) {
	name := s.GAR.Name
	if s.Topology.name() == "bucketed" {
		size, seed := s.Topology.BucketSize, s.Topology.seed(s.Seed)
		return func(n, f int) (gar.GAR, error) {
			return gar.NewBucketed(name, n, f, size, seed)
		}
	}
	return func(n, f int) (gar.GAR, error) {
		return gar.New(name, n, f)
	}
}

// Validate checks the Spec for structural errors without materializing it.
// Registry names are resolved, so an unknown GAR/attack/mechanism/model name
// fails here rather than mid-run.
func (s *Spec) Validate() error {
	if s.SchemaVersion != 0 && s.SchemaVersion != Version {
		return fmt.Errorf("%w: %d (want %d)", ErrBadSpecVersion, s.SchemaVersion, Version)
	}
	switch src := s.Data.source(); src {
	case "synthetic-phishing", "two-gaussians":
	case "libsvm":
		if s.Data.Path == "" {
			return errors.New("spec: libsvm source needs data.path")
		}
	default:
		return fmt.Errorf("spec: unknown data source %q", src)
	}
	switch name := s.Model.name(); name {
	case "logistic-mse", "logistic-nll", "linear", "mean-estimation":
	case "mlp":
		if s.Model.Hidden <= 0 {
			return fmt.Errorf("spec: mlp needs a positive hidden width, got %d", s.Model.Hidden)
		}
	default:
		return fmt.Errorf("spec: unknown model %q", name)
	}
	if s.GAR.Name == "" {
		return errors.New("spec: missing gar.name")
	}
	switch k := s.GAR.Kernel; k {
	case "", "exact":
	case "incremental":
		return errors.New("spec: gar kernel \"incremental\" was retired (under per-round DP noise it " +
			"recomputed the exact pass every round); use \"exact\", which produces the bit-identical trajectory")
	case "sketched":
		return errors.New("spec: gar kernel \"sketched\" was retired (it approximated the Krum-family rules and " +
			"rarely kept their exact pick on noise-dominated gradients); use \"exact\"")
	default:
		return fmt.Errorf("spec: unknown gar kernel %q", k)
	}
	switch name := s.Topology.name(); name {
	case "flat", "bucketed":
	default:
		return fmt.Errorf("spec: unknown topology %q", name)
	}
	// Constructing the rule validates its own n-vs-f constraint (at the
	// bucket count ⌈n/s⌉ under the bucketed topology).
	if _, err := s.NewGARFactory()(s.GAR.N, s.GAR.F); err != nil {
		return err
	}
	if s.Staleness != nil {
		if s.Staleness.Stragglers < 0 {
			return fmt.Errorf("spec: negative staleness stragglers %d", s.Staleness.Stragglers)
		}
		if q := s.Quorum(); q < 1 {
			return fmt.Errorf("spec: staleness quorum n − f − stragglers = %d must be positive", q)
		}
		switch late := s.Staleness.late(); late {
		case "credit", "discard":
		default:
			return fmt.Errorf("spec: unknown staleness late policy %q", late)
		}
	}
	if m := s.Membership; m != nil {
		mc := membership.Config{
			MinWorkers:  m.MinWorkers,
			MaxWorkers:  m.MaxWorkers,
			FRatio:      m.FRatio,
			EpochRounds: m.EpochRounds,
		}
		if err := mc.Validate(); err != nil {
			return err
		}
		if s.GAR.N < m.MinWorkers || s.GAR.N > m.MaxWorkers {
			return fmt.Errorf("spec: gar.n %d outside membership [%d, %d]",
				s.GAR.N, m.MinWorkers, m.MaxWorkers)
		}
		if f := mc.F(s.GAR.N); f != s.GAR.F {
			return fmt.Errorf("spec: membership fRatio %v derives f=%d at n=%d, but gar.f is %d",
				m.FRatio, f, s.GAR.N, s.GAR.F)
		}
	}
	if s.Partition != nil {
		if _, err := partition.New(s.Partition.Name); err != nil {
			return err
		}
		if s.Partition.Beta < 0 {
			return fmt.Errorf("spec: negative partition beta %v", s.Partition.Beta)
		}
		if s.Partition.Shards < 0 {
			return fmt.Errorf("spec: negative partition shards %d", s.Partition.Shards)
		}
		if s.Partition.Alpha < 0 {
			return fmt.Errorf("spec: negative partition alpha %v", s.Partition.Alpha)
		}
	}
	if s.Attack != nil {
		if _, err := attack.New(s.Attack.Name); err != nil {
			return err
		}
		if s.GAR.F <= 0 {
			return errors.New("spec: attack configured but gar.f is 0")
		}
	}
	if s.Mechanism != nil {
		if !nameKnown(dp.Names(), s.Mechanism.Name) {
			return fmt.Errorf("spec: unknown mechanism %q (known: %v)", s.Mechanism.Name, dp.Names())
		}
		if s.Mechanism.Sigma <= 0 && s.ClipNorm <= 0 {
			return errors.New("spec: mechanism calibration needs clipNorm (or an explicit sigma)")
		}
	}
	if s.Steps <= 0 {
		return fmt.Errorf("spec: non-positive steps %d", s.Steps)
	}
	if s.BatchSize <= 0 {
		return fmt.Errorf("spec: non-positive batch size %d", s.BatchSize)
	}
	if s.LearningRate <= 0 {
		return fmt.Errorf("spec: non-positive learning rate %v", s.LearningRate)
	}
	if s.Momentum > 0 && s.WorkerMomentum > 0 {
		return errors.New("spec: use either momentum or workerMomentum, not both")
	}
	return nil
}

func nameKnown(names []string, name string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}
