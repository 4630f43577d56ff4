// Command dpbyz-train runs a single training experiment described by a
// serializable run spec and prints the metric trace as CSV.
//
// The scenario comes from one dpbyz.Spec — either a JSON file (-spec) or
// assembled from the flags — and runs on a chosen backend:
//
//	dpbyz-train -gar mda -attack alie -dp -batch 50 -steps 1000 -seed 1
//	dpbyz-train -spec run.json                     # same, from a file
//	dpbyz-train -spec run.json -backend cluster    # in-process distributed
//	dpbyz-train -gar mda -attack alie -dp -dump-spec > run.json
//
// The emitted spec file is the same document cmd/dpbyz-server,
// cmd/dpbyz-worker and cmd/dpbyz-experiments -exp spec consume.
//
// The trained model is the final -checkpoint snapshot: a run writes one at
// its last step, holding the params beside the Spec and the backend that
// produced them. Read it with dpbyz.LoadRunState, or continue it with
// -resume.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"dpbyz"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dpbyz-train:", err)
		os.Exit(1)
	}
}

func run() (retErr error) {
	var (
		specPath = flag.String("spec", "", "JSON run-spec file (overrides the scenario flags)")
		dumpSpec = flag.Bool("dump-spec", false, "print the run spec as JSON and exit without training")
		backend  = flag.String("backend", "local", "execution backend: local|cluster (cluster = in-process distributed run over a chan transport)")

		garName    = flag.String("gar", "mda", "aggregation rule (see -list)")
		attackArg  = flag.String("attack", "", "attack name, empty for the unattacked averaging baseline (see -list)")
		workers    = flag.Int("n", 11, "total workers")
		byz        = flag.Int("f", 5, "max Byzantine workers")
		steps      = flag.Int("steps", 1000, "SGD steps T")
		batch      = flag.Int("batch", 50, "batch size b")
		lr         = flag.Float64("lr", 2, "learning rate")
		momentum   = flag.Float64("momentum", 0.99, "worker-side momentum coefficient")
		serverMom  = flag.Bool("server-momentum", false, "apply momentum at the server instead of the workers")
		postNoise  = flag.Bool("post-noise-momentum", false, "theory-faithful ordering: per-sample clip, noise, then momentum")
		modelName  = flag.String("model", "logistic-mse", "model: logistic-mse|logistic-nll|mlp")
		hidden     = flag.Int("hidden", 16, "hidden width for -model mlp")
		clip       = flag.Float64("clip", 0.01, "gradient clipping bound G_max")
		dpOn       = flag.Bool("dp", false, "inject DP noise (see -mechanism)")
		mechName   = flag.String("mechanism", "gaussian", "DP mechanism (see -list)")
		epsilon    = flag.Float64("eps", 0.2, "per-step privacy epsilon")
		delta      = flag.Float64("delta", 1e-6, "per-step privacy delta")
		seed       = flag.Uint64("seed", 1, "random seed")
		bucket     = flag.Int("bucket", 0, "bucketed pre-aggregation: average seed-derived buckets of this size before the GAR (0 = flat topology)")
		bucketSeed = flag.Uint64("bucket-seed", 0, "bucket-deal seed for -bucket (0 = derive from -seed)")
		stragglers = flag.Int("stragglers", 0, "bounded-staleness quorum: fire each round at n-f-stragglers submissions (0 = fully synchronous)")
		late       = flag.String("late", "credit", "late-frame policy with -stragglers: credit|discard")

		epochRounds = flag.Int("epoch-rounds", 0, "epoched membership: re-derive the worker view, f and the GAR every k rounds (0 = fixed cohort)")
		minWorkers  = flag.Int("min-workers", 0, "membership population floor (0 = -n)")
		maxWorkers  = flag.Int("max-workers", 0, "membership population cap (0 = -n)")
		fRatio      = flag.Float64("f-ratio", 0, "membership Byzantine fraction; each epoch tolerates floor(f-ratio*n_e) (0 = -f/-n)")

		partName  = flag.String("partition", "", "dataset partitioner: iid|dirichlet|shard|quantity (empty = IID, every worker samples the full split)")
		partBeta  = flag.Float64("beta", 0, "Dirichlet concentration for -partition dirichlet (0 = default)")
		partShard = flag.Int("shards", 0, "label-sorted shards per worker for -partition shard (0 = default)")
		partAlpha = flag.Float64("alpha", 0, "power-law exponent for -partition quantity (0 = default)")
		dsSize    = flag.Int("dataset", 11055, "synthetic dataset size")
		features  = flag.Int("features", 68, "feature dimension")
		libsvm    = flag.String("libsvm", "", "optional LIBSVM file to train on instead of synthetic data")
		accEvery  = flag.Int("acc-every", 50, "measure accuracy every k steps")

		ckptPath  = flag.String("checkpoint", "", "write a resumable run snapshot to this path")
		ckptEvery = flag.Int("checkpoint-every", 100, "snapshot every k steps (with -checkpoint)")
		resume    = flag.String("resume", "", "resume from a snapshot written via -checkpoint")
		jsonl     = flag.String("jsonl", "", "stream per-step metrics as JSON lines to this file (- for stderr)")
		progress  = flag.Int("progress", 0, "print a progress line every k steps (0 disables)")
		list      = flag.Bool("list", false, "list registered GARs, attacks and mechanisms, then exit")
	)
	flag.Parse()

	if *list {
		fmt.Println("GARs:      ", dpbyz.GARNames())
		fmt.Println("attacks:   ", dpbyz.AttackNames(), "(adaptive:", dpbyz.AdaptiveAttackNames(), ")")
		fmt.Println("mechanisms:", dpbyz.MechanismNames())
		fmt.Println("partitions:", dpbyz.PartitionNames())
		return nil
	}

	var s dpbyz.Spec
	if *specPath != "" {
		loaded, err := dpbyz.LoadSpec(*specPath)
		if err != nil {
			return err
		}
		s = *loaded
	} else {
		s = dpbyz.Spec{
			Data: dpbyz.DataSpec{N: *dsSize, Features: *features},
			Model: dpbyz.ModelSpec{
				Name: *modelName, Hidden: mlpHidden(*modelName, *hidden),
			},
			Steps:             *steps,
			BatchSize:         *batch,
			LearningRate:      *lr,
			MomentumPostNoise: *postNoise,
			ClipNorm:          *clip,
			Seed:              *seed,
			AccuracyEvery:     *accEvery,
		}
		if *libsvm != "" {
			s.Data = dpbyz.DataSpec{Source: "libsvm", Path: *libsvm, Features: *features}
		}
		if *serverMom {
			s.Momentum = *momentum
		} else {
			s.WorkerMomentum = *momentum
		}
		if *attackArg == "" {
			// Unattacked baseline: all workers honest, plain averaging (the
			// paper's convention for the no-attack cells).
			s.GAR = dpbyz.GARSpec{Name: "average", N: *workers}
		} else {
			s.GAR = dpbyz.GARSpec{Name: *garName, N: *workers, F: *byz}
			s.Attack = &dpbyz.AttackSpec{Name: *attackArg}
		}
		if *dpOn {
			s.Mechanism = &dpbyz.MechanismSpec{Name: *mechName, Epsilon: *epsilon, Delta: *delta}
		}
		if *partName != "" {
			s.Partition = &dpbyz.PartitionSpec{
				Name: *partName, Beta: *partBeta, Shards: *partShard, Alpha: *partAlpha,
			}
		}
		if *bucket > 0 {
			s.Topology = &dpbyz.TopologySpec{Name: "bucketed", BucketSize: *bucket, Seed: *bucketSeed}
		}
		if *stragglers > 0 {
			s.Staleness = &dpbyz.StalenessSpec{Stragglers: *stragglers, Late: *late}
		}
		if *epochRounds > 0 {
			m := &dpbyz.MembershipSpec{
				MinWorkers:  *minWorkers,
				MaxWorkers:  *maxWorkers,
				FRatio:      *fRatio,
				EpochRounds: *epochRounds,
			}
			if m.MinWorkers == 0 {
				m.MinWorkers = s.GAR.N
			}
			if m.MaxWorkers == 0 {
				m.MaxWorkers = s.GAR.N
			}
			if m.FRatio == 0 && s.GAR.F > 0 {
				// Default to the declared (n, f): the smallest ratio whose
				// floor at n recovers f.
				m.FRatio = float64(s.GAR.F) / float64(s.GAR.N)
			}
			s.Membership = m
		}
	}
	if *dumpSpec {
		b, err := s.JSON()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(b)
		return err
	}

	var opts []dpbyz.Option
	if *ckptPath != "" {
		opts = append(opts, dpbyz.WithCheckpointFile(*ckptPath, *ckptEvery))
	}
	if *resume != "" {
		opts = append(opts, dpbyz.WithResumeFile(*resume))
	}
	if *jsonl != "" {
		out := os.Stderr
		if *jsonl != "-" {
			f, err := os.Create(*jsonl)
			if err != nil {
				return fmt.Errorf("create jsonl file: %w", err)
			}
			defer f.Close()
			out = f
		}
		sink := dpbyz.NewJSONLSink(out)
		// The sink buffers; an unflushed close truncates the final lines.
		defer func() {
			if cerr := sink.Close(); cerr != nil && retErr == nil {
				retErr = fmt.Errorf("flush jsonl: %w", cerr)
			}
		}()
		opts = append(opts, dpbyz.WithObserver(sink))
	}
	if *progress > 0 {
		opts = append(opts, dpbyz.WithObserver(dpbyz.NewProgressSink(os.Stderr, *progress)))
	}

	var be dpbyz.Backend
	switch *backend {
	case "local":
		be = &dpbyz.LocalBackend{}
	case "cluster":
		be = &dpbyz.ClusterBackend{}
	default:
		return fmt.Errorf("unknown backend %q (local|cluster)", *backend)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := be.Run(ctx, s, opts...)
	if err != nil {
		// A clean interrupt is a success: the backend flushed a final
		// checkpoint of the completed prefix on the way out (when -checkpoint
		// is set), so the run resumes with -resume. A failed snapshot flush
		// does not match context.Canceled and stays a nonzero exit.
		if ctx.Err() != nil && errors.Is(err, context.Canceled) {
			if *ckptPath != "" {
				fmt.Fprintf(os.Stderr, "interrupted; resumable checkpoint flushed to %s\n", *ckptPath)
			} else {
				fmt.Fprintln(os.Stderr, "interrupted")
			}
			if res != nil {
				printPrivacy(res.Privacy)
			}
			return nil
		}
		return err
	}
	fmt.Fprintf(os.Stderr, "final: loss=%.6g acc=%.4f\n",
		res.History.FinalLoss(), res.History.FinalAccuracy())
	if res.Cluster != nil {
		fmt.Fprintf(os.Stderr, "cluster: accepted=%d discarded=%d missed=%d credited=%d\n",
			res.Cluster.Accepted, res.Cluster.Discarded, res.Cluster.Missed, res.Cluster.Credited)
		for _, e := range res.Cluster.Epochs {
			fmt.Fprintf(os.Stderr, "epoch %d: n=%d f=%d rounds=%d accepted=%d missed=%d\n",
				e.Epoch, e.N, e.F, e.Rounds, e.Accepted, e.Missed)
		}
	}
	printPrivacy(res.Privacy)
	return res.History.WriteCSV(os.Stdout)
}

// printPrivacy reports the run's ledger with its method; a Spec the ledger
// does not cover, or without noise, gets no number.
func printPrivacy(p dpbyz.Privacy) {
	if p.Method == "rdp" || p.Method == "basic" {
		fmt.Fprintf(os.Stderr, "per-worker privacy spend over %d releases (%s): eps=%.4g delta=%.3g\n",
			p.Releases, p.Method, p.Epsilon, p.Delta)
		return
	}
	fmt.Fprintf(os.Stderr, "per-worker privacy spend over %d releases: %s\n", p.Releases, p.Method)
}

// mlpHidden returns the hidden width to record: only MLPs have one.
func mlpHidden(modelName string, hidden int) int {
	if modelName == "mlp" {
		return hidden
	}
	return 0
}
