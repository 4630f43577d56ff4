package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dpbyz/internal/cluster"
	"dpbyz/internal/metrics"
	"dpbyz/internal/model"
	"dpbyz/internal/spec"
)

// clusterCounts are the exact counts the traced cluster runs made at the
// transport boundary and in the delivery ledger.
type clusterCounts struct {
	rounds, runs               int
	bytesUp, bytesDown, frames int64
	missed, discarded, epochs  int
}

// tracedRun is spec.ClusterBackend.Run redone by hand — one server, GAR.N
// worker goroutines, joined before returning — with the timing wrappers on
// the model, the mechanism, the aggregation rule and the transport.
func (w *clusterWorkload) tracedRun(ctx context.Context, s spec.Spec, rt *runTrace) ([]float64, *spec.ClusterStats, error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	if s.Model.Name != "logistic-mse" || s.Attack != nil || s.Staleness != nil {
		return nil, nil, fmt.Errorf("bench: the traced cluster run builds attack-free, fully synchronous logistic-mse Specs only")
	}
	mdl, err := model.NewLogisticMSE(w.train.Dim())
	if err != nil {
		return nil, nil, err
	}
	wm, err := wrapModel(mdl, rt.inRun)
	if err != nil {
		return nil, nil, err
	}
	mech, err := mechanismOf(&s, mdl.Dim())
	if err != nil {
		return nil, nil, err
	}

	inner, addr := w.transport, "127.0.0.1:0"
	if inner == nil {
		inner, addr = cluster.NewChanTransport(), "cluster"
	}
	transport := &countingTransport{inner: inner, rt: rt}

	// The interval from the round loop's last broadcast write to the start
	// of aggregation is the time it waited for the slowest worker.
	collectWait := func(aggStart time.Time) {
		rt.t.add(spanCollectWait, rt.round.Load(), rt.run, rt.lastServerWrite.Load(), rt.t.since(aggStart))
	}
	factory := wrapGARFactory(s.NewGARFactory(), rt.inRound, collectWait)
	srvCfg := cluster.ServerConfig{
		Addr:         addr,
		Transport:    transport,
		Dim:          mdl.Dim(),
		Steps:        s.Steps,
		LearningRate: s.LearningRate,
		Momentum:     s.Momentum,
		RoundTimeout: roundTimeout,
		StepHook: func(metrics.StepRecord, []float64) error {
			rt.endRound()
			return nil
		},
	}
	if m := s.Membership; m != nil {
		srvCfg.Membership = &cluster.MembershipConfig{
			MinWorkers:  m.MinWorkers,
			MaxWorkers:  m.MaxWorkers,
			FRatio:      m.FRatio,
			EpochRounds: m.EpochRounds,
			NewGAR:      factory,
		}
	} else if srvCfg.GAR, err = factory(s.GAR.N, s.GAR.F); err != nil {
		return nil, nil, err
	}
	srv, err := cluster.NewServer(srvCfg)
	if err != nil {
		return nil, nil, err
	}

	workerCtx, stopWorkers := context.WithCancel(ctx)
	defer stopWorkers()
	n := s.GAR.N
	workerRounds := make([]int, n)
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		cfg := cluster.WorkerConfig{
			Addr:              srv.Addr(),
			Transport:         transport,
			WorkerID:          id,
			Membership:        s.Membership != nil,
			Model:             wm,
			Train:             w.train,
			BatchSize:         s.BatchSize,
			ClipNorm:          s.ClipNorm,
			Mechanism:         &timedMechanism{inner: mech, rec: rt.inRun},
			Momentum:          s.WorkerMomentum,
			MomentumPostNoise: s.MomentumPostNoise,
			Seed:              s.Seed,
			LearningRate:      s.LearningRate,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// As in the backend, a worker error after a successful server
			// run (a final broadcast lost to teardown) is not a run failure;
			// a worker that stopped early shows up as missed slots.
			if res, _ := cluster.RunWorker(workerCtx, cfg); res != nil {
				workerRounds[cfg.WorkerID] = res.Rounds
			}
		}()
	}
	res, runErr := srv.Run(ctx)
	stopWorkers()
	wg.Wait()
	if runErr != nil {
		return nil, nil, runErr
	}
	return res.Params, &spec.ClusterStats{
		Accepted:     res.AcceptedGradients,
		Discarded:    res.DiscardedSubmissions,
		Missed:       res.MissedGradients,
		Credited:     res.CreditedGradients,
		WorkerRounds: workerRounds,
		Epochs:       res.Epochs,
	}, nil
}

func (w *clusterWorkload) tracedBatch(ctx context.Context, sz size, m *meter, tr *tracer) (batchOut, error) {
	s := w.mkSpec(w.seed, sz.steps)
	batch := tr.beginBatch()
	if err := m.start(); err != nil {
		return batchOut{}, err
	}
	rt := tr.beginRun(batch)
	params, stats, err := w.tracedRun(ctx, s, rt)
	rt.end()
	if err != nil {
		return batchOut{}, err
	}
	if err := m.stop(); err != nil {
		return batchOut{}, err
	}
	tr.finish(batch, tr.since(time.Now()))
	w.counts.rounds += s.Steps
	w.counts.runs++
	w.counts.bytesUp += rt.bytesUp.Load()
	w.counts.bytesDown += rt.bytesDown.Load()
	w.counts.frames += rt.frames.Load()
	w.counts.missed += stats.Missed
	w.counts.discarded += stats.Discarded
	w.counts.epochs += len(stats.Epochs)
	return clusterOutcome(&s, params, stats)
}

func (w *clusterWorkload) layerMetrics(ctx context.Context, tr *tracer, out metricSet) error {
	tt := tr.totals()
	layerPerRound(out, tt, true)
	steady := float64(tt.count[spanRound])
	c := w.counts
	if steady == 0 || c.rounds == 0 {
		return fmt.Errorf("bench: no traced rounds to report")
	}
	rounds := float64(c.rounds)
	out.layer("cluster.bytes_up_per_round", float64(c.bytesUp)/rounds)
	out.layer("cluster.bytes_down_per_round", float64(c.bytesDown)/rounds)
	out.layer("cluster.frames_per_round", float64(c.frames)/rounds)
	out.layer("cluster.write_us_per_round", float64(tt.dur[spanServerWrite]+tt.dur[spanWorkerWrite])/1e3/rounds)
	out.layer("cluster.collect_wait_us_per_round", float64(tt.childOfRound[spanCollectWait])/1e3/steady)
	out.layer("cluster.server_self_us_per_round", float64(tt.self[spanRound])/1e3/steady)
	out.layer("cluster.round_ms_p50", quantile(tt.roundNS, 0.5)/1e6)
	out.layer("cluster.round_ms_p90", quantile(tt.roundNS, 0.9)/1e6)
	out.layer("cluster.missed_slots", float64(c.missed))
	out.layer("cluster.discarded_frames", float64(c.discarded))
	out.layer("membership.epochs_per_run", float64(c.epochs)/float64(c.runs))

	// The wall of a one-round run is what a run costs around its rounds:
	// materialization, bind, n handshakes, teardown.
	var m meter
	var oerr error
	out.layer("cluster.run_overhead_ms", millis(timeCalls(func() {
		if _, err := w.batch(ctx, size{1, 1}, &m); err != nil {
			oerr = err
		}
	})))
	if oerr != nil {
		return oerr
	}

	s := w.mkSpec(w.seed, w.full.steps)
	data := spec.WithDatasets(w.train, w.test)
	if err := replayShared(ctx, out, s, shapeOf(&s, w.train.Dim()+1), w.seed, data); err != nil {
		return err
	}
	return layerCheckpoint(ctx, out, s, w.tmpRoot, data)
}
