package cluster

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"dpbyz/internal/data"
	"dpbyz/internal/gar"
	"dpbyz/internal/membership"
	"dpbyz/internal/metrics"
	"dpbyz/internal/model"
	"dpbyz/internal/vecmath"
)

// TestClusterChaos64Workers is the adversarial-network scale test: 64
// in-process workers with a mix of Byzantine attackers, crashers,
// stragglers, a wrong-dimension peer, and honest workers behind lossy,
// duplicating, reordering, delaying links — the §2.1 channel model the
// TCP tests could never exercise. The honest majority must still learn,
// every stale/duplicate/bad-dimension submission must be discarded, and
// the missed-gradient accounting must balance exactly.
func TestClusterChaos64Workers(t *testing.T) {
	const (
		n         = 64
		f         = 8 // Byzantine workers (ids 0..7)
		steps     = 25
		crashers  = 6  // ids 8..13, die after 3 rounds
		straggler = 6  // ids 14..19, always past the round deadline
		faulty    = 10 // ids 20..29, honest over chaotic links
		// id 30 submits wrong-dimension gradients; 31..63 honest and clean.
	)
	tr := NewChanTransport()
	ds := testDataset(t)
	m := testModel(t)

	smallModel, err := model.NewLogisticMSE(4)
	if err != nil {
		t.Fatal(err)
	}
	smallDS, err := data.SyntheticPhishing(data.SyntheticPhishingConfig{N: 100, Features: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}

	srvCfg := ServerConfig{
		Addr:         "chaos",
		Transport:    tr,
		GAR:          mustGAR(t, "trimmedmean", n, f),
		Dim:          m.Dim(),
		Steps:        steps,
		LearningRate: 2,
		Momentum:     0.9,
		RoundTimeout: 250 * time.Millisecond,
	}
	workers := make([]WorkerConfig, n)
	for i := range workers {
		workers[i] = WorkerConfig{
			Transport: tr,
			WorkerID:  i,
			Model:     m,
			Train:     ds,
			BatchSize: 20,
			ClipNorm:  0.01,
			Seed:      uint64(i + 1),
		}
		switch {
		case i < f:
			// Byzantine: the shared adversary below.
		case i < f+crashers:
			workers[i].MaxRounds = 3
		case i < f+crashers+straggler:
			workers[i].RoundDelay = 600 * time.Millisecond
		case i < f+crashers+straggler+faulty:
			// SkipFirst 1 keeps the hello (and the first broadcast) reliable:
			// connection setup succeeds, every round after runs over a lossy,
			// duplicating, reordering, jittering link in both directions.
			workers[i].Transport = tr.WithFaults(
				FaultConfig{Seed: uint64(100 + i), SkipFirst: 1, DropProb: 0.15, DupProb: 0.2, ReorderProb: 0.2, Delay: 5 * time.Millisecond, DelayJitter: 20 * time.Millisecond},
				FaultConfig{Seed: uint64(200 + i), SkipFirst: 1, DropProb: 0.15, DupProb: 0.2, ReorderProb: 0.2, Delay: 5 * time.Millisecond, DelayJitter: 20 * time.Millisecond},
			)
		case i == f+crashers+straggler+faulty:
			workers[i].Model = smallModel
			workers[i].Train = smallDS
		}
	}
	// The adversary crafts from the honest cohort, which the
	// wrong-dimension worker is not part of.
	wrongDim := f + crashers + straggler + faulty
	honest := append(append([]WorkerConfig(nil), workers[f:wrongDim]...), workers[wrongDim+1:]...)
	adv := signFlipCoalition(t, mustGAR(t, "trimmedmean", n, f), honest)
	for i := range workers[:f] {
		workers[i].Attack = adv
	}

	srvRes, workerRes, workerErrs := launch(t, srvCfg, workers)

	if got := srvRes.History.Len(); got != steps {
		t.Errorf("server finished %d rounds, want %d", got, steps)
	}
	// The honest majority must have learned despite the chaos.
	loss := model.DatasetLoss(m, srvRes.Params, ds)
	if loss >= 0.25 {
		t.Errorf("final dataset loss %v did not improve on the 0.25 start", loss)
	}
	// Accounting must balance exactly: every (worker, round) slot was either
	// aggregated or replaced by the zero vector — nothing double-counted,
	// nothing lost, no matter what the channels did.
	if got, want := srvRes.AcceptedGradients+srvRes.MissedGradients, n*steps; got != want {
		t.Errorf("accepted %d + missed %d = %d, want exactly %d",
			srvRes.AcceptedGradients, srvRes.MissedGradients, got, want)
	}
	// Deterministic lower bounds: each crasher misses steps-3 rounds, the
	// stragglers and the wrong-dimension worker miss every round.
	if minMissed := crashers*(steps-3) + straggler*steps + steps; srvRes.MissedGradients < minMissed {
		t.Errorf("missed gradients = %d, want >= %d", srvRes.MissedGradients, minMissed)
	}
	// Stragglers alone guarantee stale discards; the wrong-dimension worker
	// guarantees bad-dimension discards.
	if srvRes.DiscardedSubmissions == 0 {
		t.Error("no submissions discarded under a duplicating/reordering network")
	}
	// Clean honest workers must finish every round with the final model and
	// no error.
	for i := f + crashers + straggler + faulty + 1; i < n; i++ {
		if workerErrs[i] != nil {
			t.Errorf("clean worker %d: %v", i, workerErrs[i])
			continue
		}
		if workerRes[i].Rounds != steps {
			t.Errorf("clean worker %d rounds = %d, want %d", i, workerRes[i].Rounds, steps)
		}
		if !vecmath.ApproxEqual(workerRes[i].FinalParams, srvRes.Params, 0) {
			t.Errorf("clean worker %d final params differ from server", i)
		}
	}
	// Crashers really crashed.
	for i := f; i < f+crashers; i++ {
		if workerRes[i] != nil && workerRes[i].Rounds != 3 {
			t.Errorf("crasher %d rounds = %d, want 3", i, workerRes[i].Rounds)
		}
	}
}

// TestClusterChaos512Quorum scales the chaos test to 512 workers in
// bounded-staleness quorum mode: the server fires every round at
// n − f − stragglers submissions instead of waiting out the timeout, so a
// permanently slow 6% of the fleet cannot pace the run. The quorum cut must
// be exact — every round commits with precisely Quorum slots filled — and
// the accounting must balance to the last (worker, round) pair.
func TestClusterChaos512Quorum(t *testing.T) {
	if testing.Short() {
		t.Skip("512-worker run needs full rounds")
	}
	const (
		n         = 512
		f         = 16 // Byzantine workers (ids 0..15)
		crashers  = 16 // ids 16..31, die after 3 rounds
		straggler = 32 // ids 32..63, always far past the quorum cut
		steps     = 5
		quorum    = n - f - straggler // 464
		delay     = 1200 * time.Millisecond
	)
	tr := NewChanTransport()
	ds := testDataset(t)
	m := testModel(t)

	srv, err := NewServer(ServerConfig{
		Addr:         "chaos512",
		Transport:    tr,
		GAR:          mustGAR(t, "trimmedmean", n, f),
		Dim:          m.Dim(),
		Steps:        steps,
		LearningRate: 2,
		Momentum:     0.9,
		RoundTimeout: 10 * time.Second,
		Quorum:       quorum,
		LateCredit:   true,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := testContext(t)
	defer cancel()
	workerCtx, stopWorkers := testWorkerContext(ctx)
	baseWorker := func(id int) WorkerConfig {
		return WorkerConfig{
			Addr:      "chaos512",
			Transport: tr,
			WorkerID:  id,
			Model:     m,
			Train:     ds,
			BatchSize: 20,
			ClipNorm:  0.01,
			Seed:      uint64(id + 1),
		}
	}
	honest := make([]WorkerConfig, n-f)
	for i := range honest {
		honest[i] = baseWorker(f + i)
	}
	adv := signFlipCoalition(t, mustGAR(t, "trimmedmean", n, f), honest)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		cfg := baseWorker(i)
		switch {
		case i < f:
			cfg.Attack = adv
		case i < f+crashers:
			cfg.MaxRounds = 3
		case i < f+crashers+straggler:
			cfg.RoundDelay = delay
		}
		wg.Add(1)
		go func(cfg WorkerConfig) {
			defer wg.Done()
			_, _ = RunWorker(workerCtx, cfg)
		}(cfg)
	}

	start := time.Now()
	srvRes, srvErr := srv.Run(ctx)
	elapsed := time.Since(start)
	stopWorkers() // release stragglers sleeping out their RoundDelay
	wg.Wait()
	if srvErr != nil {
		t.Fatalf("server: %v", srvErr)
	}
	if got := srvRes.History.Len(); got != steps {
		t.Errorf("server finished %d rounds, want %d", got, steps)
	}
	// Pacing: waiting on the stragglers would cost >= steps×delay = 6s; the
	// quorum cut must finish well before that.
	if limit := 5 * time.Second; elapsed >= limit {
		t.Errorf("quorum run took %v, want < %v (server paced by stragglers)", elapsed, limit)
	}
	// The accounting balances exactly, and the quorum cut is exact: every
	// round commits with precisely quorum filled slots, so the remaining
	// n − quorum slots are zero-padded misses. Crashing honest workers only
	// shift who fills the quorum (rounds 3+ have exactly quorum live fast
	// workers), never how many.
	if got, want := srvRes.AcceptedGradients+srvRes.MissedGradients, n*steps; got != want {
		t.Errorf("accepted %d + missed %d = %d, want exactly %d",
			srvRes.AcceptedGradients, srvRes.MissedGradients, got, want)
	}
	if want := (n - quorum) * steps; srvRes.MissedGradients != want {
		t.Errorf("missed gradients = %d, want exactly %d", srvRes.MissedGradients, want)
	}
	if srvRes.CreditedGradients > srvRes.AcceptedGradients {
		t.Errorf("credited %d exceeds accepted %d",
			srvRes.CreditedGradients, srvRes.AcceptedGradients)
	}
	if !vecmath.AllFinite(srvRes.Params) {
		t.Error("final params not finite")
	}
}

// TestClusterChaosChurn is the 64-worker chaos test under epoched
// membership: on top of Byzantine attackers and lossy links, the fleet now
// churns — workers crash for good, workers kill their own connections and
// rejoin, a dead worker is restarted epochs later under the same id, and a
// fresh worker joins mid-run. The server must re-derive f and the view at
// every boundary, and no matter how the population moved, the per-epoch
// ledger Accepted_e + Missed_e == n_e × rounds_e must balance to the last
// (worker, round) pair.
func TestClusterChaosChurn(t *testing.T) {
	const (
		maxN        = 64
		atk         = 8  // ids 0..7: sign-flip Byzantine
		crashers    = 4  // ids 8..11: die after 4 rounds, never return
		droppers    = 4  // ids 12..15: kill their own conn mid-run, rejoin
		restarterID = 16 // crashes, restarted fresh once the gate opens
		faulty      = 8  // ids 17..24: honest over lossy/duplicating links
		// ids 25..62 honest and clean; id 63 joins only mid-run.
		lateID      = 63
		steps       = 18
		epochRounds = 3
		fratio      = 0.15
	)
	tr := NewChanTransport()
	ds := testDataset(t)
	m := testModel(t)

	restartGate := make(chan struct{})
	lateGate := make(chan struct{})
	srvCfg := ServerConfig{
		Addr:      "churn",
		Transport: tr,
		Membership: &MembershipConfig{
			MinWorkers:  40,
			MaxWorkers:  maxN,
			FRatio:      fratio,
			EpochRounds: epochRounds,
			NewGAR: func(n, f int) (gar.GAR, error) {
				return gar.New("trimmedmean", n, f)
			},
		},
		Dim:          m.Dim(),
		Steps:        steps,
		LearningRate: 2,
		Momentum:     0.9,
		RoundTimeout: 300 * time.Millisecond,
		StepHook: func(rec metrics.StepRecord, w []float64) error {
			switch rec.Step {
			case 2:
				close(lateGate)
			case 8:
				close(restartGate)
			}
			return nil
		},
	}
	srv, err := NewServer(srvCfg)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := testContext(t)
	defer cancel()
	baseWorker := func(id int) WorkerConfig {
		return WorkerConfig{
			Addr:       "churn",
			Transport:  tr,
			WorkerID:   id,
			Model:      m,
			Train:      ds,
			BatchSize:  20,
			ClipNorm:   0.01,
			Seed:       uint64(id + 1),
			Membership: true,
		}
	}

	var wg sync.WaitGroup
	results := make([]*WorkerResult, maxN)
	workerErrs := make([]error, maxN)
	start := func(id int, cfg WorkerConfig, gate chan struct{}) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if gate != nil {
				select {
				case <-gate:
				case <-ctx.Done():
					workerErrs[id] = ctx.Err()
					return
				}
			}
			results[id], workerErrs[id] = RunWorker(ctx, cfg)
		}()
	}
	honest := make([]WorkerConfig, maxN-atk)
	for i := range honest {
		honest[i] = baseWorker(atk + i)
	}
	adv := signFlipCoalition(t, mustGAR(t, "trimmedmean", maxN, atk), honest)
	for id := 0; id < maxN; id++ {
		cfg := baseWorker(id)
		switch {
		case id < atk:
			cfg.Attack = adv
		case id < atk+crashers:
			cfg.MaxRounds = 4
		case id < atk+crashers+droppers:
			cfg.DropConnAfter = 4
		case id == restarterID:
			cfg.MaxRounds = 3
		case id < restarterID+1+faulty:
			cfg.Transport = tr.WithFaults(
				FaultConfig{Seed: uint64(100 + id), SkipFirst: 1, DropProb: 0.1, DupProb: 0.15, ReorderProb: 0.15, Delay: 2 * time.Millisecond, DelayJitter: 10 * time.Millisecond},
				FaultConfig{Seed: uint64(200 + id), SkipFirst: 1, DropProb: 0.1, DupProb: 0.15, ReorderProb: 0.15, Delay: 2 * time.Millisecond, DelayJitter: 10 * time.Millisecond},
			)
		}
		switch id {
		case restarterID:
			// First life: crash after 3 rounds. Second life: a fresh process
			// under the same id, launched two-plus epochs later.
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := RunWorker(ctx, cfg); err != nil {
					workerErrs[restarterID] = fmt.Errorf("crash phase: %w", err)
					return
				}
				select {
				case <-restartGate:
				case <-ctx.Done():
					workerErrs[restarterID] = ctx.Err()
					return
				}
				results[restarterID], workerErrs[restarterID] = RunWorker(ctx, baseWorker(restarterID))
			}()
		case lateID:
			start(id, cfg, lateGate)
		default:
			start(id, cfg, nil)
		}
	}

	srvRes, srvErr := srv.Run(ctx)
	wg.Wait()
	if srvErr != nil {
		t.Fatalf("server: %v", srvErr)
	}
	if got := srvRes.History.Len(); got != steps {
		t.Errorf("server finished %d rounds, want %d", got, steps)
	}
	// The honest majority must still learn through the churn.
	loss := model.DatasetLoss(m, srvRes.Params, ds)
	if loss >= 0.25 {
		t.Errorf("final dataset loss %v did not improve on the 0.25 start", loss)
	}
	// Exact per-epoch accounting: every epoch's ledger balances against its
	// realized view, and the epochs tile the run.
	if err := membership.BalanceEpochs(srvRes.Epochs); err != nil {
		t.Errorf("epoch books: %v", err)
	}
	totalRounds, totalSlots := 0, 0
	for _, st := range srvRes.Epochs {
		totalRounds += st.Rounds
		totalSlots += st.N * st.Rounds
		// f is re-derived from the live population every epoch.
		if want := int(fratio*float64(st.N) + 1e-9); st.F != want {
			t.Errorf("epoch %d: f = %d for n = %d, want %d", st.Epoch, st.F, st.N, want)
		}
	}
	if totalRounds != steps {
		t.Errorf("epoch rounds sum to %d, want %d", totalRounds, steps)
	}
	if got := srvRes.AcceptedGradients + srvRes.MissedGradients; got != totalSlots {
		t.Errorf("accepted %d + missed %d = %d, want exactly %d (Σ n_e × rounds_e)",
			srvRes.AcceptedGradients, srvRes.MissedGradients, got, totalSlots)
	}
	// Churn is visible in the books: crashers really die...
	for id := atk; id < atk+crashers; id++ {
		if workerErrs[id] != nil {
			t.Errorf("crasher %d: %v", id, workerErrs[id])
		} else if results[id].Rounds != 4 {
			t.Errorf("crasher %d rounds = %d, want 4", id, results[id].Rounds)
		}
	}
	last := srvRes.Epochs[len(srvRes.Epochs)-1]
	for id := atk; id < atk+crashers; id++ {
		if viewOf(last).Contains(id) {
			t.Errorf("crashed worker %d still in the final view", id)
		}
	}
	// ...droppers rejoin and keep their stream position exact...
	for id := atk + crashers; id < atk+crashers+droppers; id++ {
		if workerErrs[id] != nil {
			t.Errorf("dropper %d: %v", id, workerErrs[id])
			continue
		}
		r := results[id]
		if r.Rejoins < 1 {
			t.Errorf("dropper %d rejoins = %d, want >= 1", id, r.Rejoins)
		}
		if r.Rounds+r.FastForwarded != steps {
			t.Errorf("dropper %d rounds %d + fast-forwarded %d != %d",
				id, r.Rounds, r.FastForwarded, steps)
		}
		if !vecmath.ApproxEqual(r.FinalParams, srvRes.Params, 0) {
			t.Errorf("dropper %d final params differ from server", id)
		}
	}
	// ...the restarted worker comes back under its old id...
	if workerErrs[restarterID] != nil {
		t.Errorf("restarter: %v", workerErrs[restarterID])
	} else {
		r := results[restarterID]
		if r.FastForwarded == 0 || r.Rounds+r.FastForwarded != steps {
			t.Errorf("restarter rounds %d + fast-forwarded %d != %d",
				r.Rounds, r.FastForwarded, steps)
		}
		if !viewOf(last).Contains(restarterID) {
			t.Errorf("restarted worker %d missing from the final view", restarterID)
		}
	}
	// ...and the late joiner is admitted at a boundary and catches up.
	if workerErrs[lateID] != nil {
		t.Errorf("late joiner: %v", workerErrs[lateID])
	} else {
		r := results[lateID]
		if r.FastForwarded < epochRounds || r.Rounds+r.FastForwarded != steps {
			t.Errorf("late joiner rounds %d + fast-forwarded %d, want sum %d with >= %d replayed",
				r.Rounds, r.FastForwarded, steps, epochRounds)
		}
		if !viewOf(last).Contains(lateID) {
			t.Errorf("late joiner %d missing from the final view", lateID)
		}
	}
	// Clean honest workers ride through every epoch untouched.
	for id := restarterID + 1 + faulty; id < lateID; id++ {
		if workerErrs[id] != nil {
			t.Errorf("clean worker %d: %v", id, workerErrs[id])
			continue
		}
		r := results[id]
		if r.Rounds+r.FastForwarded != steps {
			t.Errorf("clean worker %d rounds %d + fast-forwarded %d != %d",
				id, r.Rounds, r.FastForwarded, steps)
		}
		if !vecmath.ApproxEqual(r.FinalParams, srvRes.Params, 0) {
			t.Errorf("clean worker %d final params differ from server", id)
		}
	}
}

// testContext bounds a chaos run; testWorkerContext derives the worker
// context the test cancels once the server is done.
func testContext(t *testing.T) (context.Context, context.CancelFunc) {
	t.Helper()
	return context.WithTimeout(context.Background(), 120*time.Second)
}

func testWorkerContext(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithCancel(ctx)
}

// TestClusterSteadyStateAllocationGate pins the zero-alloc discipline end
// to end: once a run is warm, one additional training round (server round
// loop + reader goroutines + n worker loops over the in-process transport)
// must allocate far less than one gradient-sized slice. Gob framing used
// to cost ~2·n·d float64s per round; the binary codec plus buffer reuse
// must stay under d floats total.
func TestClusterSteadyStateAllocationGate(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate needs full runs")
	}
	const (
		n           = 8
		dim         = 4097 // weights dim for 4096 features
		short, long = 4, 24
	)
	// Force the sequential (fully allocation-free) aggregation path so the
	// measurement isn't clouded by the parallel engine's dispatch.
	vecmath.SetParallelism(1)
	defer vecmath.SetParallelism(0)

	ds, err := data.SyntheticPhishing(data.SyntheticPhishingConfig{N: 200, Features: dim - 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.NewLogisticMSE(dim - 1)
	if err != nil {
		t.Fatal(err)
	}

	run := func(steps int) {
		tr := NewChanTransport()
		srvCfg := ServerConfig{
			Addr:         "alloc",
			Transport:    tr,
			GAR:          mustGAR(t, "average", n, 0),
			Dim:          m.Dim(),
			Steps:        steps,
			LearningRate: 0.1,
			RoundTimeout: 10 * time.Second,
		}
		workers := make([]WorkerConfig, n)
		for i := range workers {
			workers[i] = WorkerConfig{
				Transport: tr,
				WorkerID:  i,
				Model:     m,
				Train:     ds,
				BatchSize: 10,
				ClipNorm:  0.01,
				Seed:      uint64(i + 1),
			}
		}
		srvRes, _, workerErrs := launch(t, srvCfg, workers)
		for i, werr := range workerErrs {
			if werr != nil {
				t.Fatalf("worker %d: %v", i, werr)
			}
		}
		if srvRes.MissedGradients != 0 {
			t.Fatalf("missed gradients = %d on a reliable transport", srvRes.MissedGradients)
		}
	}

	run(2) // warm the scratch pools
	var before, mid, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(short)
	runtime.ReadMemStats(&mid)
	run(long)
	runtime.ReadMemStats(&after)

	shortAlloc := mid.TotalAlloc - before.TotalAlloc
	longAlloc := after.TotalAlloc - mid.TotalAlloc
	if longAlloc < shortAlloc {
		// Scratch reuse can make the longer run cheaper in absolute terms;
		// then the marginal per-round cost is certainly fine.
		return
	}
	perRound := float64(longAlloc-shortAlloc) / float64(long-short)
	limit := float64(dim * 8 / 2) // half of one gradient-sized slice
	t.Logf("marginal allocation per round: %.0f bytes (limit %.0f)", perRound, limit)
	if perRound > limit {
		t.Errorf("steady-state round allocates %.0f bytes, want < %.0f (no gradient-sized slices)",
			perRound, limit)
	}
}

// TestFinalParamsDoesNotAliasRecycledScratch is the regression test for
// the WorkerResult.FinalParams aliasing bug: the worker's last decoded
// Params lives in conn-owned scratch that is recycled to other connections
// on close, so returning it without a copy would let a later connection
// rewrite a result the caller already owns.
func TestFinalParamsDoesNotAliasRecycledScratch(t *testing.T) {
	const n = 2
	tr := NewChanTransport()
	ds := testDataset(t)
	m := testModel(t)
	srvCfg := ServerConfig{
		Addr:         "alias",
		Transport:    tr,
		GAR:          mustGAR(t, "average", n, 0),
		Dim:          m.Dim(),
		Steps:        5,
		LearningRate: 1,
		RoundTimeout: 5 * time.Second,
	}
	workers := make([]WorkerConfig, n)
	for i := range workers {
		workers[i] = WorkerConfig{
			Transport: tr,
			WorkerID:  i,
			Model:     m,
			Train:     ds,
			BatchSize: 10,
			ClipNorm:  0.01,
			Seed:      uint64(i + 1),
		}
	}
	srvRes, workerRes, workerErrs := launch(t, srvCfg, workers)
	for i, err := range workerErrs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	want := append([]float64(nil), srvRes.Params...)
	for i, wr := range workerRes {
		if !vecmath.ApproxEqual(wr.FinalParams, want, 0) {
			t.Fatalf("worker %d final params differ before scratch reuse", i)
		}
	}

	// Poison every buffer the closed connections returned to the scratch
	// pool. If any FinalParams aliased conn scratch, it corrupts now.
	for _, buf := range drainScratchForTest() {
		for i := range buf {
			buf[i] = math.NaN()
		}
	}
	for i, wr := range workerRes {
		if !vecmath.ApproxEqual(wr.FinalParams, want, 0) {
			t.Errorf("worker %d FinalParams aliases recycled decode scratch", i)
		}
	}
}
