package spec

import (
	"fmt"
	"os"

	"dpbyz/internal/attack"
	"dpbyz/internal/data"
	"dpbyz/internal/dp"
	"dpbyz/internal/gar"
	"dpbyz/internal/model"
	"dpbyz/internal/partition"
	"dpbyz/internal/randx"
)

// Stream-derivation salts for the deterministic auxiliary streams, matching
// the historical constants so spec-driven runs reproduce the trajectories of
// the pre-Spec CLI and experiment runners bit for bit.
const (
	splitSalt   = 0x53504c4954 // "SPLIT"
	mlpInitSalt = 0x4d4c50     // "MLP"
)

// materialized is a Spec resolved into live objects, ready to hand to an
// execution backend.
type materialized struct {
	train, test *data.Dataset
	// workerTrain holds the per-worker training shards of a partitioned Spec
	// (nil for the IID default). It is a pure function of (train, partition
	// spec, seed), so every process materializing the same Spec — local
	// backend, in-process cluster, or a JoinSpec worker on another machine —
	// computes identical shards.
	workerTrain []*data.Dataset
	model       model.Model
	gar         gar.GAR
	attack      attack.Attack
	mech        dp.Mechanism
	initParams  []float64
}

// trainFor returns worker id's training dataset: its partition shard when
// the Spec is partitioned, the shared training split otherwise.
func (m *materialized) trainFor(id int) *data.Dataset {
	if m.workerTrain != nil {
		return m.workerTrain[id]
	}
	return m.train
}

// buildDatasets generates (or loads) the dataset named by the Spec and
// splits it deterministically.
func (s *Spec) buildDatasets() (train, test *data.Dataset, err error) {
	d := s.Data
	seed := d.seed(s.Seed)
	var ds *data.Dataset
	switch d.source() {
	case "synthetic-phishing":
		ds, err = data.SyntheticPhishing(data.SyntheticPhishingConfig{
			N: d.n(), Features: d.features(), Seed: seed,
		})
	case "two-gaussians":
		ds, err = data.TwoGaussians(data.TwoGaussiansConfig{
			N: d.n(), Dim: d.features(), Separation: d.separation(), Seed: seed,
		})
	case "libsvm":
		var f *os.File
		f, err = os.Open(d.Path)
		if err != nil {
			return nil, nil, fmt.Errorf("spec: open libsvm %s: %w", d.Path, err)
		}
		defer f.Close()
		ds, err = data.ParseLIBSVM(f, d.features())
	default:
		return nil, nil, fmt.Errorf("spec: unknown data source %q", d.source())
	}
	if err != nil {
		return nil, nil, fmt.Errorf("spec: build dataset: %w", err)
	}
	trainN := d.TrainN
	if trainN <= 0 {
		// Default to the paper's 8400/11055 proportion of the actual dataset
		// size (which for libsvm sources is only known after parsing).
		trainN = ds.Len() * data.PhishingTrainSize / data.PhishingSize
	}
	if trainN >= ds.Len() {
		return nil, nil, fmt.Errorf("spec: train size %d not below dataset size %d", trainN, ds.Len())
	}
	train, test, err = ds.Split(trainN, randx.New(seed^splitSalt))
	if err != nil {
		return nil, nil, fmt.Errorf("spec: split dataset: %w", err)
	}
	return train, test, nil
}

// buildPartition deals the training split across the Spec's GAR.N workers
// with the named partitioner. The IID cases — no partition field, or the
// explicit "iid" name — return nil so every worker keeps sampling the shared
// training split exactly as unpartitioned runs always have (bit-identical,
// no per-worker copies).
func (s *Spec) buildPartition(train *data.Dataset) ([]*data.Dataset, error) {
	p := s.Partition
	if p == nil || p.Name == "iid" {
		return nil, nil
	}
	seed := p.Seed
	if seed == 0 {
		seed = s.Data.seed(s.Seed)
	}
	shards, err := partition.Split(p.Name, train, partition.Params{
		Workers: s.GAR.N,
		Seed:    seed,
		Beta:    p.Beta,
		Shards:  p.Shards,
		Alpha:   p.Alpha,
	})
	if err != nil {
		return nil, fmt.Errorf("spec: partition: %w", err)
	}
	return shards, nil
}

// buildModel resolves the model name for the given feature dimension and,
// for MLPs, derives the deterministic initialization from the run seed.
func (s *Spec) buildModel(f int, dataSeed uint64) (model.Model, []float64, error) {
	switch s.Model.name() {
	case "logistic-mse":
		m, err := model.NewLogisticMSE(f)
		return m, nil, err
	case "logistic-nll":
		m, err := model.NewLogisticNLL(f)
		return m, nil, err
	case "linear":
		m, err := model.NewLinearRegression(f)
		return m, nil, err
	case "mean-estimation":
		m, err := model.NewMeanEstimation(f)
		return m, nil, err
	case "mlp":
		m, err := model.NewMLP(f, s.Model.Hidden)
		if err != nil {
			return nil, nil, err
		}
		init := m.InitParams(randx.New(dataSeed ^ mlpInitSalt).Normal)
		return m, init, nil
	default:
		return nil, nil, fmt.Errorf("spec: unknown model %q", s.Model.name())
	}
}

// materialize resolves every registry reference of the Spec into live
// objects. Injected datasets (o.train/o.test, used by the experiment grids
// to share per-seed datasets across conditions) bypass dataset generation;
// injected init params bypass the MLP derivation.
func (s *Spec) materialize(o *runOptions) (*materialized, error) {
	return s.materializeFrom(o, s.buildDatasets)
}

// materializeFrom is materialize with the dataset source named: build runs
// only for a valid Spec with no injected datasets, which is where
// LocalBackend puts the dataset its previous run built. Whatever the source,
// datasets are shared read-only — nothing below, and nothing in a run,
// writes through them.
func (s *Spec) materializeFrom(o *runOptions, build func() (train, test *data.Dataset, err error)) (*materialized, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	m := &materialized{train: o.train, test: o.test}
	if m.train == nil {
		var err error
		m.train, m.test, err = build()
		if err != nil {
			return nil, err
		}
	}
	var err error
	if m.workerTrain, err = s.buildPartition(m.train); err != nil {
		return nil, err
	}
	m.model, m.initParams, err = s.buildModel(m.train.Dim(), s.Data.seed(s.Seed))
	if err != nil {
		return nil, err
	}
	if o.initParams != nil {
		m.initParams = o.initParams
	}
	// The topology is applied in the factory: every backend materializes the
	// identical rule, so the bucket deal — a pure function of its seed —
	// agrees across local, cluster and worker processes.
	if m.gar, err = s.NewGARFactory()(s.GAR.N, s.GAR.F); err != nil {
		return nil, err
	}
	if s.Attack != nil {
		// Rule injection for GAR-aware attacks happens at the consumer: the
		// simulate runner arms m.attack with its rule, and the cluster path
		// hands it to the run's one adversary (coalition) with the server's rule.
		m.attack, err = attack.New(s.Attack.Name)
		if err != nil {
			return nil, err
		}
	}
	if s.Mechanism != nil {
		m.mech, err = dp.New(s.Mechanism.Name, dp.MechanismParams{
			GMax:      s.ClipNorm,
			BatchSize: s.BatchSize,
			Dim:       m.model.Dim(),
			Budget:    dp.Budget{Epsilon: s.Mechanism.Epsilon, Delta: s.Mechanism.Delta},
			Sigma:     s.Mechanism.Sigma,
		})
		if err != nil {
			return nil, err
		}
	}
	return m, nil
}
