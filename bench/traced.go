package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"dpbyz/internal/attack"
	"dpbyz/internal/data"
	"dpbyz/internal/dp"
	"dpbyz/internal/metrics"
	"dpbyz/internal/model"
	"dpbyz/internal/simulate"
	"dpbyz/internal/spec"
)

// traced is the outcome of the traced mode.
type traced struct {
	tracer            *tracer
	hash              uint64
	attempted, failed int
	metrics           metricSet
}

// minTracePairs is how many (untraced, traced) batch pairs the traced mode
// runs at least.
const minTracePairs = 3

// runTraced measures the per-layer metrics of w. It alternates untraced and
// traced batches, so that both see the same machine, and reports their
// throughput gap as the tracing overhead: per-layer numbers from a run whose
// overhead is high are not to be trusted.
func runTraced(ctx context.Context, w workload, opt options) (*traced, error) {
	if err := w.prepare(ctx); err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", w.name(), err)
	}
	if err := w.check(ctx, checkRounds); err != nil {
		return nil, fmt.Errorf("%s: reference check: %w", w.name(), err)
	}
	full, warm, _ := w.sizes()
	var m meter
	if _, err := w.batch(ctx, warm, &m); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", w.name(), err)
	}

	res := &traced{tracer: newTracer(), metrics: newLayerSet()}
	var plainRPS, tracedRPS []float64
	phase := time.Now()
	budget := time.Duration(opt.seconds) * time.Second
	for pair := 0; pair < maxBatches && (pair < minTracePairs || time.Since(phase) < budget); pair++ {
		plain, err := w.batch(ctx, full, &m)
		if err != nil {
			return nil, fmt.Errorf("%s: untraced batch %d: %w", w.name(), pair, err)
		}
		plainRPS = append(plainRPS, float64(plain.rounds)/m.last.wall.Seconds())
		tb, err := w.tracedBatch(ctx, full, &m, res.tracer)
		if err != nil {
			return nil, fmt.Errorf("%s: traced batch %d: %w", w.name(), pair, err)
		}
		tracedRPS = append(tracedRPS, float64(tb.rounds)/m.last.wall.Seconds())
		if tb.hash != plain.hash || (pair > 0 && tb.hash != res.hash) {
			return nil, fmt.Errorf("%s: pair %d: traced batch ended in params hash %016x, untraced in %016x: the wrappers changed the work",
				w.name(), pair, tb.hash, plain.hash)
		}
		res.hash = tb.hash
		res.attempted += plain.attempted + tb.attempted
		res.failed += plain.failed + tb.failed
		fmt.Fprintf(os.Stderr, "bench: %s pair %d: %.1f rounds/s untraced, %.1f traced\n",
			w.name(), pair+1, plainRPS[pair], tracedRPS[pair])
	}
	if err := w.layerMetrics(ctx, res.tracer, res.metrics); err != nil {
		return nil, fmt.Errorf("%s: per-layer metrics: %w", w.name(), err)
	}
	p, t := median(plainRPS), median(tracedRPS)
	res.metrics.layer("trace.overhead_pct", 100*(p-t)/p)
	return res, nil
}

// localConfig is spec.LocalBackend's translation of a Spec into a
// simulate.Config, redone by hand so that every interface-typed seam can take
// a timing wrapper. The hash comparison in runTraced is what keeps this copy
// honest: if it drifts from the backend's, the traced run ends elsewhere.
func localConfig(s *spec.Spec, rt *runTrace) (simulate.Config, error) {
	if err := s.Validate(); err != nil {
		return simulate.Config{}, err
	}
	if s.Model.Name != "logistic-mse" || s.Partition != nil || s.Topology != nil {
		return simulate.Config{}, fmt.Errorf("bench: the traced mode builds logistic-mse, IID, flat-topology Specs only")
	}
	train, test, err := buildDatasets(s.Data)
	if err != nil {
		return simulate.Config{}, err
	}
	mdl, err := model.NewLogisticMSE(train.Dim())
	if err != nil {
		return simulate.Config{}, err
	}
	wm, err := wrapModel(mdl, rt.inRound)
	if err != nil {
		return simulate.Config{}, err
	}
	factory := wrapGARFactory(s.NewGARFactory(), rt.inRound, nil)
	rule, err := factory(s.GAR.N, s.GAR.F)
	if err != nil {
		return simulate.Config{}, err
	}
	cfg := simulate.Config{
		Model:             wm,
		Train:             train,
		Test:              test,
		GAR:               rule,
		Steps:             s.Steps,
		BatchSize:         s.BatchSize,
		LearningRate:      s.LearningRate,
		Momentum:          s.Momentum,
		WorkerMomentum:    s.WorkerMomentum,
		MomentumPostNoise: s.MomentumPostNoise,
		ClipNorm:          s.ClipNorm,
		Seed:              s.Seed,
		AccuracyEvery:     s.AccuracyEvery,
		VNRatioEvery:      s.VNRatioEvery,
		StepHook: func(metrics.StepRecord, []float64) error {
			rt.endRound()
			return nil
		},
	}
	if s.Attack != nil {
		a, err := attack.New(s.Attack.Name)
		if err != nil {
			return simulate.Config{}, err
		}
		if cfg.Attack, err = wrapAttack(a, rt.inRound); err != nil {
			return simulate.Config{}, err
		}
	}
	if s.Mechanism != nil {
		mech, err := mechanismOf(s, mdl.Dim())
		if err != nil {
			return simulate.Config{}, err
		}
		cfg.Mechanism = &timedMechanism{inner: mech, rec: rt.inRound}
	}
	if s.Staleness != nil {
		cfg.Stragglers = s.Staleness.Stragglers
		cfg.LateDiscard = s.Staleness.Late == "discard"
	}
	if s.Membership != nil {
		cfg.Epochs = &simulate.EpochConfig{
			EpochRounds: s.Membership.EpochRounds,
			FRatio:      s.Membership.FRatio,
			NewGAR:      factory,
		}
	}
	return cfg, nil
}

// mechanismOf materializes the Spec's DP mechanism for a model of dimension d.
func mechanismOf(s *spec.Spec, d int) (dp.Mechanism, error) {
	return dp.New(s.Mechanism.Name, dp.MechanismParams{
		GMax:      s.ClipNorm,
		BatchSize: s.BatchSize,
		Dim:       d,
		Budget:    dp.Budget{Epsilon: s.Mechanism.Epsilon, Delta: s.Mechanism.Delta},
		Sigma:     s.Mechanism.Sigma,
	})
}

// tracedLocalRun runs s on the simulator with the wrappers installed, as one
// run span under batch. adjust, when non-nil, edits the config first.
func tracedLocalRun(ctx context.Context, s spec.Spec, tr *tracer, batch int32, adjust func(*simulate.Config, *runTrace) error) (*simulate.Result, error) {
	rt := tr.beginRun(batch)
	defer rt.end()
	cfg, err := localConfig(&s, rt)
	if err != nil {
		return nil, err
	}
	if adjust != nil {
		if err := adjust(&cfg, rt); err != nil {
			return nil, err
		}
	}
	return simulate.Run(ctx, cfg)
}

// layerPerRound fills the wrap-sourced metrics shared by every workload from
// the tracer's totals: calls the round loop made, per steady-state round.
// workerSide says the model and the mechanism run on cluster workers, whose
// spans hang from the run and are summed over all rounds and all n workers.
func layerPerRound(out metricSet, tt *totals, workerSide bool) {
	rounds := float64(tt.count[spanRound])
	if rounds == 0 {
		return
	}
	per := func(name spanName) float64 {
		if workerSide && (name == spanModelGrad || name == spanDPPerturb) {
			all := float64(tt.count[spanRound] + tt.count[spanRound0])
			return float64(tt.dur[name]) / 1e3 / all
		}
		return float64(tt.childOfRound[name]) / 1e3 / rounds
	}
	out.layer("model.grad_us_per_round", per(spanModelGrad))
	out.layer("model.grad_calls_per_round", float64(tt.count[spanModelGrad])/float64(tt.count[spanRound]+tt.count[spanRound0]))
	out.layer("model.loss_us_per_round", per(spanModelLoss))
	out.layer("dp.perturb_us_per_round", per(spanDPPerturb))
	out.layer("attack.craft_us_per_round", per(spanAttackCraft))
	out.layer("gar.aggregate_us_per_round", per(spanGARAggregate))
	out.layer("gar.aggregate_share", 100*float64(tt.childOfRound[spanGARAggregate])/float64(tt.dur[spanRound]))
}

func (w *fig2Local) tracedBatch(ctx context.Context, sz size, m *meter, tr *tracer) (batchOut, error) {
	batch := tr.beginBatch()
	out, err := w.runBatch(sz, m, func(s spec.Spec) ([]float64, error) {
		res, err := tracedLocalRun(ctx, s, tr, batch, nil)
		if err != nil {
			return nil, err
		}
		return res.Params, nil
	})
	tr.finish(batch, tr.since(time.Now()))
	return out, err
}

func (w *fig2Local) layerMetrics(ctx context.Context, tr *tracer, out metricSet) error {
	tt := tr.totals()
	layerPerRound(out, tt, false)
	out.layer("simulate.self_us_per_round", float64(tt.self[spanRound])/1e3/float64(tt.count[spanRound]))
	full, _, _ := w.sizes()
	s := fig2Spec(w.seed, 0, full.steps)
	if err := replayShared(ctx, out, s, shapeOf(&s, data.PhishingFeatures+1), w.seed); err != nil {
		return err
	}
	return layerCheckpoint(ctx, out, s, w.tmpRoot)
}

// layerCheckpoint fills the checkpoint metrics of a workload that takes no
// snapshots itself, from the replay alone.
func layerCheckpoint(ctx context.Context, out metricSet, s spec.Spec, tmpRoot string, runOpts ...spec.Option) error {
	save, bytes, err := replayCheckpoint(ctx, s, tmpRoot, runOpts...)
	if err != nil {
		return err
	}
	out.layer("checkpoint.save_us_per_call", micros(save))
	out.layer("checkpoint.bytes_per_snapshot", float64(bytes))
	return nil
}
