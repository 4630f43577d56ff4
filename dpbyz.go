package dpbyz

import (
	"dpbyz/internal/attack"
	"dpbyz/internal/data"
	"dpbyz/internal/dp"
	"dpbyz/internal/gar"
	"dpbyz/internal/metrics"
	"dpbyz/internal/model"
	"dpbyz/internal/randx"
)

// Core type aliases. Aliasing (rather than wrapping) keeps the public API
// zero-cost and lets the internal packages evolve behind one import path.
type (
	// Dataset is an in-memory labelled dataset.
	Dataset = data.Dataset
	// Point is one labelled example.
	Point = data.Point
	// SyntheticPhishingConfig parameterizes the phishing-like generator.
	SyntheticPhishingConfig = data.SyntheticPhishingConfig
	// TwoGaussiansConfig parameterizes the two-cluster generator.
	TwoGaussiansConfig = data.TwoGaussiansConfig
	// GaussianMeanConfig parameterizes Theorem 1's data distribution.
	GaussianMeanConfig = data.GaussianMeanConfig

	// Model is a differentiable learning task.
	Model = model.Model
	// Predictor is a model that can score points for accuracy.
	Predictor = model.Predictor

	// GAR is a gradient aggregation rule.
	GAR = gar.GAR
	// Table1Row is one row of the reproduced Table 1.
	Table1Row = gar.Table1Row

	// Attack crafts Byzantine gradients.
	Attack = attack.Attack

	// Budget is an (ε, δ) differential-privacy budget.
	Budget = dp.Budget
	// Mechanism is a noise-injection DP mechanism.
	Mechanism = dp.Mechanism

	// History is a per-step metric trace.
	History = metrics.History
	// StepRecord is one step's metrics.
	StepRecord = metrics.StepRecord
	// SeriesStats is a mean ± std aggregation across seeds.
	SeriesStats = metrics.SeriesStats

	// Stream is a deterministic random stream.
	Stream = randx.Stream
)

// Dataset constructors.
var (
	// NewDataset builds a dataset from points.
	NewDataset = data.New
	// SyntheticPhishing generates the offline stand-in for the paper's
	// phishing dataset.
	SyntheticPhishing = data.SyntheticPhishing
	// TwoGaussians generates a two-cluster classification task.
	TwoGaussians = data.TwoGaussians
	// GaussianMean generates Theorem 1's N(x̄, σ²/d·I) data.
	GaussianMean = data.GaussianMean
	// ParseLIBSVM loads a LIBSVM-format file (e.g. the real phishing data).
	ParseLIBSVM = data.ParseLIBSVM
)

// Model constructors.
var (
	// NewLogisticMSE is the paper's logistic-regression-with-MSE model.
	NewLogisticMSE = model.NewLogisticMSE
	// NewLogisticNLL is cross-entropy logistic regression.
	NewLogisticNLL = model.NewLogisticNLL
	// NewLinearRegression is ordinary least squares.
	NewLinearRegression = model.NewLinearRegression
	// NewMeanEstimation is Theorem 1's strongly convex objective.
	NewMeanEstimation = model.NewMeanEstimation
	// NewMLP is a one-hidden-layer perceptron.
	NewMLP = model.NewMLP
	// Accuracy evaluates thresholded classification accuracy.
	Accuracy = model.Accuracy
	// DatasetLoss evaluates the average loss over a dataset.
	DatasetLoss = model.DatasetLoss
)

// DP constructors.
var (
	// NewGaussianMechanism calibrates Gaussian noise for a clipped batch
	// gradient: NewGaussianMechanism(gmax, batchSize, budget).
	NewGaussianMechanism = dp.NewGaussian
	// NewLaplaceMechanismForGradient calibrates Laplace noise for a clipped
	// gradient: (gmax, batchSize, dim, epsilon).
	NewLaplaceMechanismForGradient = dp.NewLaplaceForGradient
	// NoiseSigmaForGradient returns the paper's per-step noise scale
	// s = 2·Gmax·√(2·log(1.25/δ))/(b·ε).
	NoiseSigmaForGradient = dp.NoiseSigmaForGradient
)

// GAR and attack registries.
var (
	// NewGAR builds a rule by name for (n, f); see GARNames.
	NewGAR = gar.New
	// GARNames lists the registered aggregation rules.
	GARNames = gar.Names
	// ResilientGARNames lists the Byzantine-resilient rules.
	ResilientGARNames = gar.ResilientNames
	// NewAttack builds an attack by name; see AttackNames.
	NewAttack = attack.New
	// AttackNames lists the registered attacks.
	AttackNames = attack.Names
)

// VN-ratio analysis (Table 1 / Propositions 1–3).
var (
	// EmpiricalVNRatio estimates Eq. 2's ratio from honest gradients.
	EmpiricalVNRatio = gar.EmpiricalVNRatio
	// DPAdjustedVNRatio estimates Eq. 8's DP-inflated ratio.
	DPAdjustedVNRatio = gar.DPAdjustedVNRatio
	// Table1 evaluates the paper's Table 1 for a configuration.
	Table1 = gar.Table1
	// MaxByzFracMDA is Proposition 1's threshold.
	MaxByzFracMDA = gar.MaxByzFracMDA
	// MinBatchKrum is Proposition 2's threshold for the Krum family.
	MinBatchKrum = gar.MinBatchKrum
)

// NewStream returns a deterministic random stream for the given seed.
func NewStream(seed uint64) *Stream { return randx.New(seed) }
