package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"dpbyz/internal/attack"
	"dpbyz/internal/data"
	"dpbyz/internal/dp"
	"dpbyz/internal/gar"
	"dpbyz/internal/membership"
	"dpbyz/internal/metrics"
	"dpbyz/internal/model"
	"dpbyz/internal/vecmath"
	"dpbyz/internal/worker"
)

func testDataset(t *testing.T) *data.Dataset {
	t.Helper()
	ds, err := data.SyntheticPhishing(data.SyntheticPhishingConfig{
		N: 600, Features: 8, NoiseRate: 0.02, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func testModel(t *testing.T) model.Model {
	t.Helper()
	m, err := model.NewLogisticMSE(8)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustGAR(t *testing.T, name string, n, f int) gar.GAR {
	t.Helper()
	g, err := gar.New(name, n, f)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// signFlipCoalition is the sign-flip adversary a test's Byzantine workers
// share, crafting from the honest workers' configs; rule is its own (n, f)
// instance.
func signFlipCoalition(t *testing.T, rule gar.GAR, honest []WorkerConfig) *worker.Coalition {
	t.Helper()
	c, err := NewCoalition(attack.NewSignFlip(), rule, 1, honest)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// launch runs a server plus n worker goroutines and returns the server
// result once everything has shut down.
func launch(t *testing.T, srvCfg ServerConfig, workerCfgs []WorkerConfig) (*ServerResult, []*WorkerResult, []error) {
	t.Helper()
	srv, err := NewServer(srvCfg)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	results := make([]*WorkerResult, len(workerCfgs))
	workerErrs := make([]error, len(workerCfgs))
	var wg sync.WaitGroup
	for i := range workerCfgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := workerCfgs[i]
			cfg.Addr = addr
			results[i], workerErrs[i] = RunWorker(ctx, cfg)
		}(i)
	}
	srvRes, srvErr := srv.Run(ctx)
	wg.Wait()
	if srvErr != nil {
		t.Fatalf("server: %v", srvErr)
	}
	return srvRes, results, workerErrs
}

func TestServerConfigValidation(t *testing.T) {
	g := mustGAR(t, "average", 3, 0)
	tests := []struct {
		name string
		cfg  ServerConfig
	}{
		{name: "nil gar", cfg: ServerConfig{Dim: 9, Steps: 1, LearningRate: 1}},
		{name: "zero dim", cfg: ServerConfig{GAR: g, Steps: 1, LearningRate: 1}},
		{name: "zero steps", cfg: ServerConfig{GAR: g, Dim: 9, LearningRate: 1}},
		{name: "zero lr", cfg: ServerConfig{GAR: g, Dim: 9, Steps: 1}},
		{name: "momentum 1", cfg: ServerConfig{GAR: g, Dim: 9, Steps: 1, LearningRate: 1, Momentum: 1}},
		{name: "bad init", cfg: ServerConfig{GAR: g, Dim: 9, Steps: 1, LearningRate: 1, InitParams: []float64{1}}},
		{name: "negative max frame", cfg: ServerConfig{GAR: g, Dim: 9, Steps: 1, LearningRate: 1, MaxFrameBytes: -1}},
		{name: "max frame below dim", cfg: ServerConfig{GAR: g, Dim: 9, Steps: 1, LearningRate: 1, MaxFrameBytes: 16}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tt.cfg.Addr = "127.0.0.1:0"
			if _, err := NewServer(tt.cfg); err == nil {
				t.Error("expected config error")
			}
		})
	}
}

func TestWorkerConfigValidation(t *testing.T) {
	ds := testDataset(t)
	m := testModel(t)
	base := WorkerConfig{Addr: "127.0.0.1:1", WorkerID: 0, Model: m, Train: ds, BatchSize: 10}
	tests := []struct {
		name   string
		mutate func(*WorkerConfig)
	}{
		{name: "empty addr", mutate: func(c *WorkerConfig) { c.Addr = "" }},
		{name: "negative id", mutate: func(c *WorkerConfig) { c.WorkerID = -1 }},
		{name: "nil model", mutate: func(c *WorkerConfig) { c.Model = nil }},
		{name: "nil data", mutate: func(c *WorkerConfig) { c.Train = nil }},
		{name: "zero batch", mutate: func(c *WorkerConfig) { c.BatchSize = 0 }},
		{name: "negative clip", mutate: func(c *WorkerConfig) { c.ClipNorm = -1 }},
		{name: "negative max frame", mutate: func(c *WorkerConfig) { c.MaxFrameBytes = -1 }},
		{name: "max frame below model dim", mutate: func(c *WorkerConfig) { c.MaxFrameBytes = 16 }},
		{name: "feature mismatch", mutate: func(c *WorkerConfig) {
			mm, err := model.NewLogisticMSE(3)
			if err != nil {
				t.Fatal(err)
			}
			c.Model = mm
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base
			tt.mutate(&cfg)
			if _, err := RunWorker(context.Background(), cfg); err == nil {
				t.Error("expected config error")
			}
		})
	}
}

func TestEndToEndHonestTraining(t *testing.T) {
	const n = 3
	ds := testDataset(t)
	m := testModel(t)
	srvCfg := ServerConfig{
		Addr:         "127.0.0.1:0",
		GAR:          mustGAR(t, "average", n, 0),
		Dim:          m.Dim(),
		Steps:        40,
		LearningRate: 2,
		Momentum:     0.9,
		RoundTimeout: 5 * time.Second,
	}
	workers := make([]WorkerConfig, n)
	for i := range workers {
		workers[i] = WorkerConfig{
			WorkerID:  i,
			Model:     m,
			Train:     ds,
			BatchSize: 20,
			ClipNorm:  0.01,
			Seed:      uint64(i + 1),
		}
	}
	srvRes, workerRes, workerErrs := launch(t, srvCfg, workers)
	for i, err := range workerErrs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	if srvRes.MissedGradients != 0 {
		t.Errorf("missed gradients = %d", srvRes.MissedGradients)
	}
	if srvRes.History.Len() != 40 {
		t.Errorf("history length = %d", srvRes.History.Len())
	}
	// Model must have learned something: loss on the dataset below the
	// w=0 starting loss (0.25 for logistic-MSE at p=0.5).
	loss := model.DatasetLoss(m, srvRes.Params, ds)
	if loss >= 0.25 {
		t.Errorf("final dataset loss %v did not improve on 0.25", loss)
	}
	// Workers must all have received the same final model.
	for i, wr := range workerRes {
		if wr.Rounds != 40 {
			t.Errorf("worker %d rounds = %d", i, wr.Rounds)
		}
		if !vecmath.ApproxEqual(wr.FinalParams, srvRes.Params, 0) {
			t.Errorf("worker %d final params differ from server", i)
		}
	}
}

func TestCrashedWorkerBecomesZeroGradient(t *testing.T) {
	const n = 3
	ds := testDataset(t)
	m := testModel(t)
	srvCfg := ServerConfig{
		Addr:         "127.0.0.1:0",
		GAR:          mustGAR(t, "average", n, 0),
		Dim:          m.Dim(),
		Steps:        10,
		LearningRate: 1,
		Momentum:     0,
		RoundTimeout: 500 * time.Millisecond,
	}
	workers := make([]WorkerConfig, n)
	for i := range workers {
		workers[i] = WorkerConfig{
			WorkerID:  i,
			Model:     m,
			Train:     ds,
			BatchSize: 10,
			ClipNorm:  0.01,
			Seed:      uint64(i + 1),
		}
	}
	workers[2].MaxRounds = 3 // crashes after 3 rounds
	// Round 2's broadcast — the last worker 2 receives — carries the
	// parameters round 1 committed.
	var round2Params []float64
	srvCfg.StepHook = func(rec metrics.StepRecord, params []float64) error {
		if rec.Step == 1 {
			round2Params = append([]float64(nil), params...)
		}
		return nil
	}
	srvRes, workerRes, workerErrs := launch(t, srvCfg, workers)
	for i, err := range workerErrs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	if workerRes[2].Rounds != 3 {
		t.Errorf("crashed worker rounds = %d", workerRes[2].Rounds)
	}
	if !vecmath.ApproxEqual(workerRes[2].FinalParams, round2Params, 0) {
		t.Errorf("MaxRounds worker final params differ from round 2's broadcast")
	}
	// Rounds 3..9 are missing worker 2's gradient: 7 misses.
	if srvRes.MissedGradients != 7 {
		t.Errorf("missed gradients = %d, want 7", srvRes.MissedGradients)
	}
	if srvRes.History.Len() != 10 {
		t.Errorf("server did not finish all rounds: %d", srvRes.History.Len())
	}
}

func TestByzantineWorkerWithMDA(t *testing.T) {
	const n, f = 5, 1
	ds := testDataset(t)
	m := testModel(t)
	srvCfg := ServerConfig{
		Addr:         "127.0.0.1:0",
		GAR:          mustGAR(t, "mda", n, f),
		Dim:          m.Dim(),
		Steps:        40,
		LearningRate: 2,
		Momentum:     0.9,
		RoundTimeout: 5 * time.Second,
	}
	workers := make([]WorkerConfig, n)
	for i := range workers {
		workers[i] = WorkerConfig{
			WorkerID:  i,
			Model:     m,
			Train:     ds,
			BatchSize: 20,
			ClipNorm:  0.01,
			Seed:      uint64(i + 1),
		}
	}
	workers[0].Attack = signFlipCoalition(t, mustGAR(t, "mda", n, f), workers[f:])
	srvRes, _, workerErrs := launch(t, srvCfg, workers)
	for i, err := range workerErrs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	loss := model.DatasetLoss(m, srvRes.Params, ds)
	if loss >= 0.25 {
		t.Errorf("MDA failed to protect training: loss %v", loss)
	}
}

// Each DP worker releases one noisy gradient per round — the count the
// privacy ledger (spec.Spec.Privacy) charges a run with.
func TestDPWorkersOverNetwork(t *testing.T) {
	const n = 3
	ds := testDataset(t)
	m := testModel(t)
	bud := dp.Budget{Epsilon: 0.5, Delta: 1e-6}
	srvCfg := ServerConfig{
		Addr:         "127.0.0.1:0",
		GAR:          mustGAR(t, "average", n, 0),
		Dim:          m.Dim(),
		Steps:        15,
		LearningRate: 2,
		Momentum:     0.9,
		RoundTimeout: 5 * time.Second,
	}
	workers := make([]WorkerConfig, n)
	for i := range workers {
		mech, err := dp.NewGaussian(0.01, 20, bud)
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = WorkerConfig{
			WorkerID:  i,
			Model:     m,
			Train:     ds,
			BatchSize: 20,
			ClipNorm:  0.01,
			Mechanism: mech,
			Seed:      uint64(i + 1),
		}
	}
	_, results, workerErrs := launch(t, srvCfg, workers)
	for i, err := range workerErrs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
			continue
		}
		if got, want := results[i].Rounds, srvCfg.Steps; got != want {
			t.Errorf("worker %d released %d gradients, want one per round (%d)", i, got, want)
		}
	}
}

func TestServerContextCancelDuringAccept(t *testing.T) {
	srv, err := NewServer(ServerConfig{
		Addr:         "127.0.0.1:0",
		GAR:          mustGAR(t, "average", 2, 0),
		Dim:          3,
		Steps:        5,
		LearningRate: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	if _, err := srv.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("error = %v, want context.Canceled", err)
	}
}

func TestWorkerDialFailure(t *testing.T) {
	ds := testDataset(t)
	cfg := WorkerConfig{
		Addr:        "127.0.0.1:1", // nothing listens here
		WorkerID:    0,
		Model:       testModel(t),
		Train:       ds,
		BatchSize:   5,
		DialTimeout: 200 * time.Millisecond,
	}
	if _, err := RunWorker(context.Background(), cfg); err == nil {
		t.Error("dial to dead address did not error")
	}
}

// TestServerRejectsDuplicateAndBadIDs pins the hello half of the handshake
// rules: an id outside the population range is turned away, and so is a
// second hello for an id whose connection is live (first wins — a hello
// worker never redials, so the second is a stray and must not displace the
// running one). The schedule is ordered on events: each rogue has been shut
// out before the run is allowed to gather its cohort.
func TestServerRejectsDuplicateAndBadIDs(t *testing.T) {
	const n, steps = 2, 3
	ds := testDataset(t)
	m := testModel(t)
	hs := newHandshakeLog()
	srv, err := NewServer(ServerConfig{
		Addr:         "127.0.0.1:0",
		GAR:          mustGAR(t, "average", n, 0),
		Dim:          m.Dim(),
		Steps:        steps,
		LearningRate: 1,
		RoundTimeout: 2 * time.Second,
		Logf:         hs.logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// rogue says hello as id and reports how the server answered: it must
	// close the connection, never speak on it.
	rogue := func(id int) error {
		raw, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			return err
		}
		c := newConn(raw)
		defer c.close()
		if err := c.sendHello(Hello{WorkerID: id}, time.Now().Add(time.Second)); err != nil {
			return err
		}
		if m, err := c.receive(time.Now().Add(10 * time.Second)); err == nil {
			return fmt.Errorf("hello %d was registered: server sent message kind %d", id, m.kind)
		} else if errors.Is(err, os.ErrDeadlineExceeded) {
			return fmt.Errorf("hello %d was neither served nor closed: %w", id, err)
		}
		return nil
	}

	var wg sync.WaitGroup
	wg.Add(n)
	workerRes := make([]*WorkerResult, n)
	workerErrs := make([]error, n)
	startWorker := func(i int) {
		go func() {
			defer wg.Done()
			workerRes[i], workerErrs[i] = RunWorker(ctx, WorkerConfig{
				Addr:      srv.Addr(),
				WorkerID:  i,
				Model:     m,
				Train:     ds,
				BatchSize: 10,
				Seed:      uint64(i + 1),
			})
		}()
	}
	rogueErrs := make(chan error, 2)
	go func() {
		rogueErrs <- rogue(99) // out of range
		startWorker(0)
		if err := hs.wait(ctx, 0, 1); err != nil {
			rogueErrs <- err
		} else {
			rogueErrs <- rogue(0) // worker 0's connection is live
		}
		startWorker(1) // the cohort completes only now
	}()

	res, err := srv.Run(ctx)
	wg.Wait()
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	for i := 0; i < cap(rogueErrs); i++ {
		if rerr := <-rogueErrs; rerr != nil {
			t.Error(rerr)
		}
	}
	if res.History.Len() != steps {
		t.Errorf("rounds completed = %d", res.History.Len())
	}
	if res.MissedGradients != 0 {
		t.Errorf("missed gradients = %d: a rogue hello displaced a worker", res.MissedGradients)
	}
	for i, werr := range workerErrs {
		if werr != nil {
			t.Errorf("worker %d: %v", i, werr)
		} else if workerRes[i].Rounds != steps {
			t.Errorf("worker %d served %d rounds, want %d", i, workerRes[i].Rounds, steps)
		}
	}
}

// TestHelloWorkerOnMembershipServer pins the other handshake rule: a welcome
// is the reply to a join and is never sent to a connection that opened with
// hello. A plain worker among joining ones used to be killed by the boundary
// welcome (ErrBadMessage) and its slot collapsed the view; it must train to
// Done like everyone else.
func TestHelloWorkerOnMembershipServer(t *testing.T) {
	const n, steps, epochRounds = 4, 6, 2
	tr := NewChanTransport()
	ds := testDataset(t)
	m := testModel(t)
	srvCfg := ServerConfig{
		Addr:         "hello-among-joins",
		Transport:    tr,
		Membership:   testMembership(n, n, 0.25, epochRounds),
		Dim:          m.Dim(),
		Steps:        steps,
		LearningRate: 1,
		RoundTimeout: 5 * time.Second,
	}
	workers := make([]WorkerConfig, n)
	for i := range workers {
		workers[i] = WorkerConfig{
			Transport:  tr,
			WorkerID:   i,
			Model:      m,
			Train:      ds,
			BatchSize:  10,
			Seed:       uint64(i + 1),
			Membership: i != 1, // worker 1 says hello
		}
	}
	srvRes, workerRes, workerErrs := launch(t, srvCfg, workers)
	for i, err := range workerErrs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		} else if workerRes[i].Rounds != steps {
			t.Errorf("worker %d served %d rounds, want %d", i, workerRes[i].Rounds, steps)
		}
	}
	if srvRes.MissedGradients != 0 || srvRes.AcceptedGradients != n*steps {
		t.Errorf("accepted %d missed %d, want %d and 0", srvRes.AcceptedGradients, srvRes.MissedGradients, n*steps)
	}
	if err := membership.BalanceEpochs(srvRes.Epochs); err != nil {
		t.Errorf("epoch books: %v", err)
	}
	if got, want := len(srvRes.Epochs), steps/epochRounds; got != want {
		t.Errorf("epochs = %d, want %d", got, want)
	}
}

func TestStragglerMissesRounds(t *testing.T) {
	const n = 3
	ds := testDataset(t)
	m := testModel(t)
	srvCfg := ServerConfig{
		Addr:         "127.0.0.1:0",
		GAR:          mustGAR(t, "average", n, 0),
		Dim:          m.Dim(),
		Steps:        5,
		LearningRate: 1,
		RoundTimeout: 300 * time.Millisecond,
	}
	workers := make([]WorkerConfig, n)
	for i := range workers {
		workers[i] = WorkerConfig{
			WorkerID:  i,
			Model:     m,
			Train:     ds,
			BatchSize: 10,
			Seed:      uint64(i + 1),
		}
	}
	// Worker 2 always answers after the round deadline.
	workers[2].RoundDelay = time.Second
	srvRes, _, _ := launch(t, srvCfg, workers)
	if srvRes.History.Len() != 5 {
		t.Errorf("server finished %d rounds", srvRes.History.Len())
	}
	// The straggler misses every round (late gradients are stale next round).
	if srvRes.MissedGradients < 4 {
		t.Errorf("missed gradients = %d, want >= 4", srvRes.MissedGradients)
	}
}

func TestWrongDimensionGradientDiscarded(t *testing.T) {
	const n = 2
	ds := testDataset(t) // 8 features -> dim 9
	m := testModel(t)
	smallModel, err := model.NewLogisticMSE(4)
	if err != nil {
		t.Fatal(err)
	}
	smallDS, err := data.SyntheticPhishing(data.SyntheticPhishingConfig{
		N: 100, Features: 4, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	srvCfg := ServerConfig{
		Addr:         "127.0.0.1:0",
		GAR:          mustGAR(t, "average", n, 0),
		Dim:          m.Dim(),
		Steps:        3,
		LearningRate: 1,
		RoundTimeout: 300 * time.Millisecond,
	}
	workers := []WorkerConfig{
		{WorkerID: 0, Model: m, Train: ds, BatchSize: 10, Seed: 1},
		// Worker 1 submits 5-dimensional gradients against a 9-dim server;
		// the server must discard them and fall back to zero vectors.
		{WorkerID: 1, Model: smallModel, Train: smallDS, BatchSize: 10, Seed: 2},
	}
	srvRes, _, _ := launch(t, srvCfg, workers)
	if srvRes.History.Len() != 3 {
		t.Errorf("server finished %d rounds", srvRes.History.Len())
	}
	if srvRes.MissedGradients != 3 {
		t.Errorf("missed gradients = %d, want 3 (one per round)", srvRes.MissedGradients)
	}
}
