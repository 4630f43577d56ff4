// Package dpbyz is a from-scratch Go reproduction of "Differential Privacy
// and Byzantine Resilience in SGD: Do They Add Up?" (Guerraoui, Gupta,
// Pinot, Rouault, Stephan — PODC 2021).
//
// The package is a facade over the internal substrates; it exposes
// everything a downstream user needs to:
//
//   - run distributed SGD in the parameter-server model with any of the
//     paper's (α, f)-Byzantine-resilient aggregation rules (Krum,
//     Multi-Krum, Median, Trimmed Mean, Phocas, Meamed, Bulyan, MDA),
//   - inject worker-local differential privacy noise (Gaussian or Laplace
//     mechanisms) and read every run's total spend from one ledger,
//   - subject the training to the state-of-the-art attacks the paper
//     evaluates (A Little Is Enough, Fall of Empires),
//   - analyse the variance-to-norm (VN) ratio condition and the paper's
//     Table-1 necessary conditions for combining DP with Byzantine
//     resilience, and
//   - reproduce every table and figure of the paper's evaluation via
//     the experiments API or cmd/dpbyz-experiments.
//
// # Quick start
//
// The module path is "dpbyz" (see go.mod); import the facade as
// `import "dpbyz"` from inside this module. One serializable Spec describes
// a whole run — every component referenced by registry name, never by live
// object — and a Backend executes it:
//
//	s := dpbyz.Spec{
//		GAR:            dpbyz.GARSpec{Name: "mda", N: 11, F: 5},
//		Attack:         &dpbyz.AttackSpec{Name: "alie"},
//		Mechanism:      &dpbyz.MechanismSpec{Name: "gaussian", Epsilon: 0.2, Delta: 1e-6},
//		Steps:          1000,
//		BatchSize:      50,
//		LearningRate:   2,
//		WorkerMomentum: 0.99,
//		ClipNorm:       0.01,
//		Seed:           1,
//		AccuracyEvery:  50,
//	}
//	res, err := dpbyz.Run(context.Background(), s) // in-process simulator
//
// The zero Data field defaults to the paper's synthetic phishing stand-in
// with its 8400-point train split. Because the Spec is plain data, it
// round-trips through JSON (dpbyz.LoadSpec / Spec.JSON — unknown fields are
// rejected and the document carries a version tag) and the same document
// runs unchanged on every backend:
//
//	local, _ := (&dpbyz.LocalBackend{}).Run(ctx, s)    // one process, paper figures
//	dist, _ := (&dpbyz.ClusterBackend{}).Run(ctx, s)   // server + 11 workers over an
//	                                                   // in-process ChanTransport
//
// A LocalBackend value remembers the one dataset it last synthesized, so
// hold one value for a sweep — conditions × seeds over one pinned Data.Seed
// pay for the dataset once, read-only and bit-identical — while a fresh
// &dpbyz.LocalBackend{} is always cold and frees the dataset with the value:
//
//	be := &dpbyz.LocalBackend{}
//	for seed := uint64(1); seed <= 5; seed++ {
//		s.Seed, s.Data.Seed = seed, 7
//		res, err := be.Run(ctx, s)
//		...
//	}
//
// or on a real network: cmd/dpbyz-server and cmd/dpbyz-worker consume the
// same JSON file (dpbyz.ServeSpec / dpbyz.JoinSpec), adding only placement
// flags — address, transport — that are deliberately not part of the Spec.
//
// Runtime concerns attach as functional options: WithObserver streams
// per-step metrics (JSONL, progress, or an in-memory History sink; with no
// observer installed the local hot path stays zero-allocation),
// WithCheckpointFile snapshots resumable state every k steps, and
// WithResumeFile continues an interrupted run — the resumed params and
// ledger are the uninterrupted run's on the local backend, and on the
// cluster backend for a fixed, synchronous cohort (a cluster resume that
// could not be exact, one with worker momentum, fails with
// spec.ErrInexactResume).
//
// Every Result carries the run's privacy spend, Spec.Privacy(Steps): a pure
// function of the Spec and the rounds released, so a resumed run reports the
// uninterrupted run's spend on either backend, and a cancelled run reports
// its committed rounds plus the one in flight. A Gaussian run is composed in
// Rényi DP and reported at the Spec's per-step δ, a Laplace run by basic
// composition. The paper's ordering — worker momentum before the noise, the
// quick start's Spec above — releases more than the calibrated sensitivity
// and is reported as "not covered", with no number. No amplification by
// subsampling is claimed.
//
// # Scenario matrix: heterogeneous data and adaptive attacks
//
// Beyond the paper's IID-data, stateless-attack setting, two further Spec
// axes open the regimes where the (α, f)-resilience conditions are most
// fragile:
//
//   - Partition (PartitionSpec) distributes the training split across the
//     workers with a deterministic partitioner from internal/partition:
//     "iid" (the default — every worker samples the full split), "dirichlet"
//     (label skew with concentration Beta; smaller is more heterogeneous),
//     "shard" (sort-by-label shards, Shards per worker) and "quantity"
//     (power-law sample counts with exponent Alpha). Partitions are a pure
//     function of (Spec, seed): the local backend, an in-process cluster and
//     JoinSpec workers in other processes all compute identical per-worker
//     shards with no data shipped.
//
//   - Stateful attacks: besides the stateless registry ("alie", "foe",
//     "signflip", "zero", "mimic", "randomnoise"), AttackSpec accepts the
//     adaptive "ipm" (a GAR-aware inner-product maximizer that line-searches
//     its factor against the server's actual rule each step) and "drift"
//     (accumulates past aggregates and pushes persistently against the
//     descent history). Adaptive attacks observe every completed round and
//     their mutable state rides through checkpoints, so interrupted
//     LocalBackend and ClusterBackend runs resume bit-identically (a
//     cross-process dpbyz-server snapshot has no adversary half: its
//     Byzantine processes restart the attack on resume).
//     Both backends run one colluding adversary: on the cluster the f
//     Byzantine workers share it, and it recomputes the round's honest
//     submissions from the broadcast parameters, so an attacked Spec with a
//     fixed, synchronous cohort ends on the same bits on either backend.
//
// Both axes serialize like everything else:
//
//	s.Partition = &dpbyz.PartitionSpec{Name: "dirichlet", Beta: 0.3}
//	s.Attack = &dpbyz.AttackSpec{Name: "ipm"}
//
// and sweep from the experiment layer: the HeterogeneitySweep table (CLI:
// dpbyz-experiments -exp hetsweep) measures accuracy versus Dirichlet β per
// aggregation rule, bit-identical at every scheduler parallelism, and
// examples/heterogeneity walks the same sweep as a program. The GAR registry
// itself is guarded by a property battery (internal/gar property tests):
// permutation invariance, translation equivariance, single-outlier clipping
// and an empirical (α, f) check on crafted adversarial inputs.
//
// # Topology and staleness
//
// Two further axes relax the flat, fully synchronous parameter-server
// round the paper assumes, without touching the GAR registry or the
// attack model:
//
//   - Topology (TopologySpec) selects bucketed pre-aggregation: a
//     seed-derived permutation deals the n workers into m = ⌈n/s⌉ buckets
//     of size s (BucketSize), each bucket is averaged, and the configured
//     rule runs on the m bucket means at (m, f). Averaging is O(n·d) and
//     the quadratic distance-based rules then pay O(m²·d) instead of
//     O(n²·d) — at n=256, s=16 the measured Krum round is ~50x faster
//     (PR 7 in CHANGES.md) — at the cost of the inner rule needing
//     2f+3 ≤ m (resp. the rule's own bound) to hold over buckets rather
//     than workers. The deal is a pure function of the topology seed, so
//     every backend computes the same buckets; gar.NewBucketed composes
//     with any registered rule and rides the same pooled AggregateInto
//     fast path.
//
//   - Staleness (StalenessSpec) runs bounded-staleness quorum rounds: the
//     server fires each aggregation as soon as n − f − Stragglers
//     submissions are in, never waiting on the slowest workers. A frame
//     that arrives one round late is, per the Late policy, either
//     credited into the worker's empty slot in the current round
//     ("credit") or dropped ("discard"); frames more than one round stale
//     are always dropped, and a cut worker's slot is zero-padded as the
//     paper's §2.1 permits. Every (worker, round) pair lands in exactly
//     one ledger — Result.Cluster reports Accepted, Missed, Discarded and
//     Credited with the invariant Accepted + Missed = n × rounds and
//     Credited ⊆ Accepted — on both the local backend (a deterministic
//     arrival model drawing exactly Stragglers workers per round from a
//     dedicated seed stream, bit-reproducible and checkpoint-resumable
//     including in-flight frames) and the cluster (real arrival order;
//     Quorum and LateCredit on ServerConfig).
//
// Both serialize like everything else:
//
//	s.Topology = &dpbyz.TopologySpec{Name: "bucketed", BucketSize: 4}
//	s.Staleness = &dpbyz.StalenessSpec{Stragglers: 2, Late: "credit"}
//
// and sweep from the experiment layer: the StalenessSweep table (CLI:
// dpbyz-experiments -exp stalesweep) measures accuracy and the
// accounting ledger against the straggler count per rule.
//
// # Membership, churn and recovery
//
// The Membership axis (MembershipSpec) drops the assumption that the
// worker set fixed at server start survives the whole run, replacing it
// with epoched membership in the spirit of the self-stabilizing channel
// literature: the adversary — or plain operational churn — chooses which
// workers are present, and the server re-derives its threat model from
// whoever actually is.
//
//   - Epoch lifecycle: the run is partitioned into EpochRounds-round
//     epochs. Within an epoch the member view is frozen; at each boundary
//     the server admits workers that joined since the last one, evicts
//     members whose connection died or whose missed-round streak reached
//     the eviction threshold, and re-derives the epoch's Byzantine
//     allowance f_e = ⌊FRatio·n_e⌋, its quorum and a freshly materialized
//     aggregation rule for (n_e, f_e) — the GAR's breakdown point tracks
//     the live population instead of a stale initial cohort. A boundary
//     that would leave fewer than MinWorkers live members aborts the run
//     rather than silently training on a sliver. Every epoch keeps an
//     exact ledger (EpochStat): Accepted_e + Missed_e = n_e × rounds_e,
//     per epoch and summed over the run (Result.Cluster.Epochs).
//
//   - Rejoin fast-forward: a worker whose connection breaks redials (with
//     capped exponential backoff — a transient refusal at startup does not
//     kill the run) and presents its worker id and last-seen round in a
//     join frame. The server answers at the next boundary with a welcome
//     frame carrying the current round, epoch, parameters and momentum
//     velocity; the worker then replays its private randomness — one batch
//     draw and one noise perturbation per missed round — so its streams
//     re-align with the cohort and it resumes bit-identically instead of
//     submitting stale gradients. Fresh joiners send the same frame with
//     no last round and enter at the boundary like any rejoiner.
//
//   - Frame idempotency: every frame is round-tagged, so correctness never
//     leans on TCP ordering. Duplicated parameter broadcasts are skipped
//     (a worker never recomputes a round it already submitted), gradients
//     for past rounds are discarded or credited under the staleness
//     policy exactly once, and a redial replaces the member's previous
//     connection (newest wins) rather than double-registering it.
//
//   - One round engine: a Spec without a Membership block runs on the same
//     server loop as one with it — a fixed cohort is the population that
//     never changes, MinWorkers = MaxWorkers = GAR.N with one epoch
//     spanning the run — so every round-loop guarantee (a cancelled round
//     commits nothing, one deadline per round, a final snapshot of the
//     completed prefix on interrupt) holds for both. The two kinds of
//     worker differ only in the frame they open with, and that frame, not
//     the server's configuration, fixes the handshake: a welcome is the
//     reply to a join and never goes to a connection that said hello; a
//     hello for an id whose connection is live is rejected (first wins),
//     a join for it replaces the connection (newest wins).
//
//   - Model-checked safety: the accept / credit / discard table and the
//     commit bookkeeping live in one type (membership.SlotTable) that the
//     server's collect loop and the local simulator execute and an
//     explicit state machine of the round/epoch protocol explores: its
//     reachable state space is exhaustively enumerated in a tier-1
//     property test over crash/rejoin/partition schedules, asserting the
//     ledger always balances, no round commits two aggregates, and every
//     epoch's view is a subset of handshaken workers — the executable
//     analogue of the TLA+ safety specs distributed protocols usually keep
//     on the side, except that the checked transitions are the shipped
//     ones.
//
// The local backend runs the same tracker and slot table on a fixed cohort
// that never churns or evicts: every frame of its seed-drawn arrival model
// is delivered to the table, which decides and books it. The table's epoch
// books are the run's one delivery ledger and ride in every snapshot
// (RunState.Membership); on either backend a resume re-enters the
// snapshot's epoch through SlotTable.Restore, which rejects books that do
// not fit the configured population. A
// membership Spec runs bit-identically there, while actual churn
// (join/leave/rejoin) exercises the cluster backend:
//
//	s.Membership = &dpbyz.MembershipSpec{
//		MinWorkers: 9, MaxWorkers: 12, FRatio: 0.2, EpochRounds: 50,
//	}
//
// GAR.N stays the initial cohort size and must satisfy
// ⌊FRatio·GAR.N⌋ = GAR.F, so the declared rule is exactly epoch 0's.
//
// # Running the experiments and benchmarks
//
// Reproduce the paper's figures and tables from the repository root:
//
//	go run ./cmd/dpbyz-experiments
//
// and run the benchmark suite (figure pipelines, GAR throughput, the
// pooled zero-allocation aggregation paths and the parallel-engine
// speedup benches) with:
//
//	go test -bench . -benchmem
//
// # Performance
//
// Every in-process parallel loop sizes itself from its work with one rule,
// vecmath.ChunkWorkers: a loop of `work` element operations gets one
// goroutine per full grain (DefaultParallelGrain, the crossover measured on
// a 2-vCPU box), capped at GOMAXPROCS, and runs inline below two grains.
// The sites count their own work: coordinate-wise rules (Median, Trimmed
// Mean, Phocas, Meamed, the mean) n·d, split over coordinates; the one
// pairwise-distance kernel the distance-based rules (Krum, Multi-Krum,
// Bulyan, MDA) share n(n−1)/2·d; the evaluation scan points·d; and the
// simulator's honest gradient sweep (worker.StepAll, which also runs a
// cluster coalition's shadow pipelines) workers·b·d. There is no option to
// set: the paper's figure shape stays inline and wide models fan out. Every
// rule offers an AggregateInto fast path whose scratch is sync.Pool-backed:
// on the sequential (sub-grain) path it allocates nothing on the steady
// state, and with goroutine fan-out only the dispatch itself allocates.
// Results are bit-identical at every width.
//
// The simulation hot path that feeds the aggregators is batched end to
// end. Every model implements model.BatchGradienter — one blocked
// sweep per batch that folds per-sample clipping into the gradient
// accumulation (for affine models the per-sample gradient g·[x, 1] is
// clipped through the scalar |g|·√(‖x‖²+1), priced with feature norms
// cached at dataset construction, so the d-sized per-sample gradient is
// never materialized). The per-sample scores w·x are taken two rows per
// sweep over w (vecmath.DotBlocked2, bit-identical to one blocked dot per
// row), in the batched gradients and in the Loss the runner measures on
// every honest batch, and an affine block of four rows is then accumulated
// in one Axpy4 sweep. The worker pipeline (internal/worker, the one
// §2.3 honest step both the simulator and the cluster worker call) runs
// noise injection and momentum in place over pipeline-owned buffers.
// Gaussian noise comes from a 256-strip ziggurat sampler (internal/randx;
// ~5x faster per variate than the Box-Muller transform it replaced — note
// Gaussian draws are therefore not bit-compatible with pre-ziggurat
// revisions, see the randx package comment), and batch sampling reuses a
// stream-owned membership table. The steady-state training step performs
// zero allocations (enforced by AllocsPerRun gates in internal/simulate,
// internal/worker, internal/randx and internal/data); CHANGES.md (PR 3) records the measured before/after and
// bench/README.md the current fig2_local numbers.
//
// The distance-based rules (Krum, Multi-Krum, Bulyan, MDA) run one exact
// Θ(n²·d) pairwise pass, as the paper writes them; the way to shrink n is
// the bucketed topology (see "Topology and staleness").
//
// At the experiment level, every Spec-driven table — the figures, the ε,
// heterogeneity and staleness sweeps, the batch-size crossover and the spec
// cell — is one experiments.Sweep value (rows of Specs, each repeated over
// seeds), executed by the one runner experiments.Run on one bounded worker
// pool, with per-seed datasets built once and shared read-only; results are
// bit-identical at every parallelism level (see the internal/experiments
// package comment for the determinism contract, and cmd/dpbyz-experiments
// -parallel / -progress for the CLI knobs). Every experiment, Sweep-driven
// or not (Table 1, Theorem 1, the empirical VN ratio), returns its results
// as experiments.Tables, and the one writer experiments.WriteTables prints
// them, in dpbyz-experiments and dpbyz-vnratio alike.
//
// # Static analysis and code contracts
//
// Three invariants that no compiler checks hold this module together:
// bit-identical determinism at every parallelism width, zero-allocation
// steady-state hot paths, and pooled scratch buffers that must never escape
// into results. Each is declared in the source with a comment directive and
// enforced mechanically by the analyzer suite in internal/analysis, driven
// by cmd/dpbyz-lint (standalone multichecker; CI runs it as a blocking step
// and the tier-1 TestLintClean runs the same suite programmatically):
//
//   - //dpbyz:deterministic on a package comment submits the package to
//     detlint, which forbids the known nondeterminism sources: global
//     math/rand imports, wall-clock reads feeding results, map iteration
//     reaching returned or accumulated state, and goroutine writes outside
//     the scheduler's ordered-merge idiom.
//   - //dpbyz:hotpath on a function doc submits it to hotpathalloc, which
//     flags allocation-inducing constructs (make/new, literals, non-self
//     append, map writes, capturing closures, fmt and interface boxing off
//     the cold return path) — the compile-time face of the runtime
//     AllocsPerRun gates.
//   - //dpbyz:scratch marks pooled-buffer provider functions and reuse
//     carrier types; scratchalias then tracks their memory through the
//     callers and reports any alias escaping into a result struct, return
//     value or channel send — the PR-2 RunWorker bug class, caught before
//     it runs.
//   - registryref needs no annotation: every string literal used as a
//     registry key (gar/attack/partition/dp lookups, Spec reference
//     fields) is checked against the registered names, so a typo'd
//     fixture fails lint instead of failing at run time.
//   - testonly needs no annotation either: a function or method of an
//     internal/ package that no non-test file of the module references is
//     code shipped for its tests alone, and is reported.
//
// Reviewed exceptions are waived line by line (//dpbyz:wallclock,
// //dpbyz:orderedmap, //dpbyz:allowalloc, //dpbyz:allowalias,
// //dpbyz:unregistered), or in a function's doc comment for a test seam
// (//dpbyz:testseam), so every deviation from a contract is visible in
// the diff that introduces it. See the internal/analysis package
// documentation for the analyzer details and ROADMAP.md for the map of
// which packages carry which contract.
//
// # Cluster deployments: in-process vs. real TCP
//
// The networked realization (internal/cluster, cmd/dpbyz-server,
// cmd/dpbyz-worker) speaks a compact versioned binary frame protocol
// (raw little-endian float64 payloads, hard cap on declared frame sizes;
// see internal/cluster/protocol.go for the layout) over a pluggable
// Transport:
//
//   - Real deployments use TCP: start cmd/dpbyz-server, then one
//     cmd/dpbyz-worker process per worker. This is the default transport
//     and needs no flags; -max-frame-mb adjusts the frame-size cap when
//     the model dimension is very large.
//   - Tests and benchmarks embed the cluster in one process with
//     cluster.NewChanTransport: hundreds of workers as goroutines, no
//     sockets, and — via ChanTransport.WithFaults — adversarial channels
//     (drop, duplicate, reorder, delay, corrupt, truncate per frame) that
//     exercise the unreliable non-FIFO links of the paper's system model
//     (§2.1). The 64-worker chaos test and the cluster round benchmark
//     in internal/cluster show the pattern.
//
// Both paths share the same Server and RunWorker code; framing and
// per-round processing reuse caller-owned buffers, so the steady-state
// round loop allocates no gradient-sized memory on either transport.
// There is one server round loop: a fixed cohort (no Membership block) is
// its one-epoch case, gathered before the first round and never re-derived
// — a worker lost mid-run is zero-padded to the end, per §2.1 — and the
// server keeps accepting connections for the whole run either way (see
// "Membership, churn and recovery" for the two handshake rules).
//
// # Fleet service
//
// cmd/dpbyz-fleet (internal/fleet) is the long-lived multi-run control
// plane over everything above: an HTTP service that accepts Spec
// submissions — a bare Spec, an array of Specs, or a Submission envelope
// with scheduling knobs (ParseSubmission; re-exported here as Submission,
// RunID, FormatRunID) — and schedules them across the local and cluster
// backends on the bounded deterministic pool (up to -width concurrently,
// queued in priority-then-submission order; results are bit-identical at
// every width).
//
//	dpbyz-fleet -root /var/lib/dpbyz -addr 127.0.0.1:8080
//	dpbyz-train -gar mda -attack alie -steps 200 -dump-spec |
//	    curl -s -X POST --data-binary @- http://127.0.0.1:8080/runs
//	curl -sN http://127.0.0.1:8080/runs/run-00000000/events
//
// Every run persists in its own directory under the store root:
//
//	run-00000000/spec.json       the submitted Spec, indented
//	run-00000000/meta.json       status, scheduling, outcome; indented,
//	                             written at submission and at the
//	                             terminal transition
//	run-00000000/snapshot.json   the latest resumable RunState, written at
//	                             the submission's cadence: compact JSON on
//	                             one line (machine state; `python3 -m
//	                             json.tool` to read one)
//	run-00000000/events.jsonl    one line per completed step, flushed
//	                             before each snapshot
//
// The files people read are indented; the snapshot, rewritten every few
// steps of every run, is not. Indented snapshots from older stores still
// load. The service runs every local run on one LocalBackend value, so a
// submitted sweep shares its dataset as above.
//
// A run in flight reads "running" in the service but "pending" on disk: a
// restart reschedules every non-terminal run alike, so the running status
// is never written. The write ordering — log before snapshot — is the
// crash-safety contract: a service killed with runs in flight — SIGKILL,
// not merely SIGTERM — restarts, resumes each interrupted run from its
// snapshot, and finishes with final parameters bit-identical to an
// uninterrupted service, regenerating the identical telemetry along the
// way. The store is process-crash-safe only: spec, meta and snapshot are
// replaced atomically (a temporary file, then a rename) and the event log
// is appended to, but no file is fsynced, so a power loss can lose
// or reorder writes the kernel had not yet flushed. Clients
// stream GET /runs/{id}/events as ndjson with a resumable cursor
// (?cursor=N or Last-Event-ID), so a consumer that disconnects and
// reconnects sees every event exactly once even across a service crash;
// DELETE /runs/{id} cancels a queued or running run with no side effects
// beyond its already-flushed prefix, and GET /metrics reports throughput
// and stream counters (bench/README.md records the measured rates under
// fleet_sweep_http). On SIGINT/SIGTERM the service itself drains
// gracefully: in-flight runs flush a final snapshot and the store is left
// ready for the next start to resume them.
//
// See examples/ for complete programs and DESIGN.md for the architecture.
package dpbyz
