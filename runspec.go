package dpbyz

import (
	"context"

	"dpbyz/internal/attack"
	"dpbyz/internal/checkpoint"
	"dpbyz/internal/cluster"
	"dpbyz/internal/dp"
	"dpbyz/internal/membership"
	"dpbyz/internal/partition"
	"dpbyz/internal/spec"
)

// The serializable run description and its execution backends. A Spec
// references every component by registry name plus numeric parameters —
// never live objects — so one JSON document drives the in-process simulator,
// an in-process distributed cluster over a ChanTransport, a real TCP
// deployment, and the experiment grids. See the package documentation for
// the quickstart and spec.Spec for field-level docs.
type (
	// Spec fully describes one training run; JSON round-trip stable with a
	// version tag and strict unknown-field rejection.
	Spec = spec.Spec
	// DataSpec describes the dataset by source name.
	DataSpec = spec.DataSpec
	// ModelSpec references the learning task by registry name.
	ModelSpec = spec.ModelSpec
	// PartitionSpec references a dataset partitioner by registry name — the
	// heterogeneous-data (non-IID) axis of a Spec.
	PartitionSpec = spec.PartitionSpec
	// GARSpec references the aggregation rule by registry name for (n, f).
	GARSpec = spec.GARSpec
	// TopologySpec selects the aggregation topology ("flat" or "bucketed"
	// pre-aggregation over seed-derived worker buckets).
	TopologySpec = spec.TopologySpec
	// StalenessSpec enables bounded-staleness quorum rounds (the server
	// fires at n − f − stragglers submissions; late frames are credited or
	// discarded).
	StalenessSpec = spec.StalenessSpec
	// MembershipSpec enables epoched membership — churn tolerance: workers
	// join mid-run, crashed or silent ones are evicted at epoch boundaries,
	// and f and the aggregation rule are re-derived per epoch.
	MembershipSpec = spec.MembershipSpec
	// EpochStat is one epoch's exact membership ledger (view, n, f, rounds,
	// accepted/missed slots).
	EpochStat = membership.EpochStat
	// AttackSpec references a Byzantine attack by registry name.
	AttackSpec = spec.AttackSpec
	// MechanismSpec references a DP mechanism by registry name.
	MechanismSpec = spec.MechanismSpec

	// Backend executes a Spec: LocalBackend in-process, ClusterBackend over
	// a Transport.
	Backend = spec.Backend
	// LocalBackend wraps the in-process simulator (zero-allocation steady
	// state when no observer is installed).
	LocalBackend = spec.LocalBackend
	// ClusterBackend runs a parameter server plus GAR.N worker loops over a
	// pluggable Transport (default: in-process ChanTransport).
	ClusterBackend = spec.ClusterBackend
	// Result is the outcome of a run on any backend.
	Result = spec.Result
	// Privacy is a run's differential-privacy spend (Spec.Privacy).
	Privacy = spec.Privacy
	// ClusterStats is the cluster backend's exact delivery accounting.
	ClusterStats = spec.ClusterStats
	// Option configures one run on a backend.
	Option = spec.Option

	// Observer streams per-step metrics out of a running backend.
	Observer = spec.Observer
	// StepEvent is one completed step as seen by an Observer.
	StepEvent = spec.StepEvent
	// HistorySink is an in-memory Observer accumulating a History.
	HistorySink = spec.HistorySink
	// JSONLSink streams one JSON object per step to a writer.
	JSONLSink = spec.JSONLSink
	// ProgressSink prints periodic progress lines.
	ProgressSink = spec.ProgressSink

	// RunState is a resumable mid-run snapshot (see WithCheckpointFile /
	// WithResume).
	RunState = checkpoint.RunState

	// RunID names one run inside a fleet store ("run-%08d"; lexical order is
	// submission order).
	RunID = spec.RunID
	// Submission is the fleet submission envelope: a batch of Specs plus
	// scheduling knobs (backend, priority, checkpoint cadence).
	Submission = spec.Submission

	// Transport is the cluster communication substrate (see NewChanTransport
	// and TCPTransport).
	Transport = cluster.Transport
	// ChanTransport is the in-process transport: hundreds of workers as
	// goroutines, no sockets, and injectable per-direction channel faults.
	ChanTransport = cluster.ChanTransport
	// TCPTransport is the real-network transport.
	TCPTransport = cluster.TCPTransport
	// FaultConfig configures adversarial faults on a ChanTransport link.
	FaultConfig = cluster.FaultConfig
	// WorkerRunResult summarizes one cluster worker's run (JoinSpec).
	WorkerRunResult = cluster.WorkerResult
)

// Spec construction and execution helpers.
var (
	// ParseSpec decodes and validates a Spec from JSON (strict: unknown
	// fields are rejected).
	ParseSpec = spec.Parse
	// LoadSpec reads and validates a Spec from a JSON file.
	LoadSpec = spec.Load
	// ParseSubmission decodes a fleet submission from any of its three
	// accepted shapes: a bare Spec, an array of Specs, or a Submission
	// envelope.
	ParseSubmission = spec.ParseSubmission
	// FormatRunID renders a submission sequence number as a RunID.
	FormatRunID = spec.FormatRunID

	// LoadRunState reads a resumable snapshot written via WithCheckpointFile.
	LoadRunState = checkpoint.LoadRunState

	// Run options.
	WithObserver       = spec.WithObserver
	WithDatasets       = spec.WithDatasets
	WithInitParams     = spec.WithInitParams
	WithCheckpointFile = spec.WithCheckpointFile
	WithResume         = spec.WithResume
	WithResumeFile     = spec.WithResumeFile
	WithTransport      = spec.WithTransport
	WithAddr           = spec.WithAddr
	WithRoundTimeout   = spec.WithRoundTimeout
	WithMaxFrameBytes  = spec.WithMaxFrameBytes
	WithLogf           = spec.WithLogf

	// Observer sinks.
	NewHistorySink  = spec.NewHistorySink
	NewJSONLSink    = spec.NewJSONLSink
	NewProgressSink = spec.NewProgressSink

	// NewChanTransport returns an in-process cluster transport; servers and
	// the workers that should reach them share one instance.
	NewChanTransport = cluster.NewChanTransport

	// ServeSpec runs only the parameter-server half of a Spec (for
	// cmd/dpbyz-server); workers join from their own processes via JoinSpec.
	ServeSpec = spec.ServeSpec
	// JoinSpec runs only one worker's half of a Spec (for cmd/dpbyz-worker).
	JoinSpec = spec.JoinSpec

	// MechanismNames lists the registered DP mechanism names a
	// MechanismSpec may reference.
	MechanismNames = dp.Names
	// PartitionNames lists the registered dataset partitioners a
	// PartitionSpec may reference ("iid", "dirichlet", "shard", "quantity").
	PartitionNames = partition.Names
	// AdaptiveAttackNames lists the natively stateful (adaptive) attacks;
	// every other AttackNames entry is stateless.
	AdaptiveAttackNames = attack.AdaptiveNames
)

// Run executes the spec on the local backend — the shortest path from a
// Spec to a Result. Use a Backend value directly to choose where it runs.
func Run(ctx context.Context, s Spec, opts ...Option) (*Result, error) {
	return (&LocalBackend{}).Run(ctx, s, opts...)
}
