package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"dpbyz/internal/cluster"
	"dpbyz/internal/data"
	"dpbyz/internal/membership"
	"dpbyz/internal/spec"
	"dpbyz/internal/vecmath"
)

// roundTimeout is far above any round of these workloads: a round that needs
// it is a failure to report (a missed slot), never something to wait out.
const roundTimeout = 60 * time.Second

// checkRounds is the length of the copy of the Spec on which a cluster
// workload is compared with the local backend before it is measured.
const checkRounds = 20

// clusterWorkload is one training run on the in-process cluster: a server
// and GAR.N worker goroutines over a Transport. The workers are the system
// under test, not load; the benchmark itself makes one call and waits.
type clusterWorkload struct {
	wname string
	seed  uint64
	// mkSpec builds the workload's Spec for a step count.
	mkSpec func(seed uint64, steps int) spec.Spec
	// transport is nil for the backend's default ChanTransport.
	transport cluster.Transport

	full, warm, smoke size
	train, test       *data.Dataset

	// tmpRoot is where the traced mode's replays write; counts accumulates
	// the traced runs' exact counts.
	tmpRoot string
	counts  clusterCounts
}

// newKrumWideChan: the Θ(n²·d) Gram pass in gar/vecmath is the largest
// single cost, codec and channel hand-off second; fixed cohort, Server.Run.
func newKrumWideChan(opt options) *clusterWorkload {
	return &clusterWorkload{
		wname: "krum_wide_chan", seed: opt.seed, tmpRoot: opt.tmpRoot, mkSpec: krumWideSpec,
		full: size{1, 48}, warm: size{1, 12}, smoke: size{1, 3},
	}
}

// newMedianEpochTCP: 2.5 MB cross real sockets per round and the GAR is a
// cheap sorted-column kernel, so codec, syscalls and collect-wait dominate;
// epoched membership, so the second server loop (runMembership) runs.
func newMedianEpochTCP(opt options) *clusterWorkload {
	return &clusterWorkload{
		wname: "median_epoch_tcp", seed: opt.seed, tmpRoot: opt.tmpRoot, mkSpec: medianEpochSpec,
		transport: cluster.TCPTransport{},
		full:      size{1, 200}, warm: size{1, 50}, smoke: size{1, 10},
	}
}

func (w *clusterWorkload) name() string { return w.wname }

func (w *clusterWorkload) threads() int { return runtime.GOMAXPROCS(0) }

func (w *clusterWorkload) sizes() (full, warm, smoke size) { return w.full, w.warm, w.smoke }

// runOptions are the placement options of every run of the workload.
func (w *clusterWorkload) runOptions() []spec.Option {
	opts := []spec.Option{spec.WithRoundTimeout(roundTimeout)}
	if w.transport != nil {
		opts = append(opts, spec.WithTransport(w.transport), spec.WithAddr("127.0.0.1:0"))
	}
	return opts
}

func (w *clusterWorkload) setupOnce(ctx context.Context) error {
	_, err := (&spec.ClusterBackend{}).Run(ctx, w.mkSpec(w.seed, 1), w.runOptions()...)
	return err
}

func (w *clusterWorkload) prepare(context.Context) error {
	var err error
	w.train, w.test, err = buildDatasets(w.mkSpec(w.seed, 1).Data)
	return err
}

// check verifies that, with no attacker, the cluster and the simulator agree
// bit for bit on the workload's Spec — over this transport and this server
// loop.
func (w *clusterWorkload) check(ctx context.Context, rounds int) error {
	s := w.mkSpec(w.seed, rounds)
	var m meter
	got, err := w.batch(ctx, size{1, rounds}, &m)
	if err != nil {
		return err
	}
	ref, err := (&spec.LocalBackend{}).Run(ctx, s, spec.WithDatasets(w.train, w.test))
	if err != nil {
		return fmt.Errorf("local reference: %w", err)
	}
	if want := paramsHash(ref.Params); got.hash != want {
		return fmt.Errorf("cluster params hash %016x differs from the local backend's %016x after %d rounds",
			got.hash, want, rounds)
	}
	return nil
}

func (w *clusterWorkload) batch(ctx context.Context, sz size, m *meter) (batchOut, error) {
	s := w.mkSpec(w.seed, sz.steps)
	opts := append(w.runOptions(), spec.WithDatasets(w.train, w.test))
	if err := m.start(); err != nil {
		return batchOut{}, err
	}
	res, err := (&spec.ClusterBackend{}).Run(ctx, s, opts...)
	if err != nil {
		return batchOut{}, err
	}
	if err := m.stop(); err != nil {
		return batchOut{}, err
	}
	return clusterOutcome(&s, res.Params, res.Cluster)
}

// clusterOutcome checks the delivery ledger of a finished run and turns it
// into the batch's operation counts: one operation per worker-round slot.
func clusterOutcome(s *spec.Spec, params []float64, st *spec.ClusterStats) (batchOut, error) {
	slots := s.GAR.N * s.Steps
	out := batchOut{rounds: s.Steps, attempted: slots}
	if st == nil {
		return out, fmt.Errorf("cluster run returned no delivery ledger")
	}
	if st.Accepted+st.Missed != slots {
		return out, fmt.Errorf("ledger does not balance: accepted %d + missed %d != n×rounds %d",
			st.Accepted, st.Missed, slots)
	}
	if s.Membership != nil {
		if err := membership.BalanceEpochs(st.Epochs); err != nil {
			return out, err
		}
		want := (s.Steps + s.Membership.EpochRounds - 1) / s.Membership.EpochRounds
		if len(st.Epochs) != want {
			return out, fmt.Errorf("%d epochs recorded, want %d", len(st.Epochs), want)
		}
	}
	if !vecmath.AllFinite(params) {
		return out, fmt.Errorf("non-finite final parameters")
	}
	out.failed = st.Missed + st.Discarded
	out.hash = paramsHash(params)
	return out, nil
}
