package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dpbyz/internal/dp"
	"dpbyz/internal/gar"
	"dpbyz/internal/membership"
	"dpbyz/internal/metrics"
	"dpbyz/internal/vecmath"
)

// testMembership builds a MembershipConfig with an average-GAR factory —
// the smallest rule that is valid for every (n, f) an epoch can produce.
func testMembership(min, max int, fratio float64, epochRounds int) *MembershipConfig {
	return &MembershipConfig{
		MinWorkers:  min,
		MaxWorkers:  max,
		FRatio:      fratio,
		EpochRounds: epochRounds,
		NewGAR: func(n, f int) (gar.GAR, error) {
			return gar.New("average", n, f)
		},
	}
}

// handshakeLog counts the server's handshake progress lines per worker id,
// so a churn test orders its schedule on the server having registered a
// worker — the event — instead of on sleeps that only make it likely.
type handshakeLog struct {
	mu      sync.Mutex
	seen    map[int]int
	changed chan struct{} // closed and replaced on every handshake
}

func newHandshakeLog() *handshakeLog {
	return &handshakeLog{seen: make(map[int]int), changed: make(chan struct{})}
}

// logf is the ServerConfig.Logf that feeds the log.
func (h *handshakeLog) logf(format string, args ...any) {
	if format != logHandshaken {
		return
	}
	h.mu.Lock()
	h.seen[args[0].(int)]++
	close(h.changed)
	h.changed = make(chan struct{})
	h.mu.Unlock()
}

// wait blocks until worker id has completed k handshakes.
func (h *handshakeLog) wait(ctx context.Context, id, k int) error {
	for {
		h.mu.Lock()
		n, changed := h.seen[id], h.changed
		h.mu.Unlock()
		if n >= k {
			return nil
		}
		select {
		case <-changed:
		case <-ctx.Done():
			return fmt.Errorf("waiting for handshake %d of worker %d: %w", k, id, ctx.Err())
		}
	}
}

func TestMembershipServerConfigValidation(t *testing.T) {
	tr := NewChanTransport()
	m := testModel(t)
	base := func() ServerConfig {
		return ServerConfig{
			Addr:         "",
			Transport:    tr,
			Membership:   testMembership(2, 4, 0.25, 3),
			Dim:          m.Dim(),
			Steps:        3,
			LearningRate: 1,
			RoundTimeout: time.Second,
		}
	}

	ok := base()
	srv, err := NewServer(ok)
	if err != nil {
		t.Fatalf("valid membership config rejected: %v", err)
	}
	_ = srv.listener.Close()

	tests := []struct {
		name   string
		mutate func(*ServerConfig)
	}{
		{"GAR set alongside membership", func(c *ServerConfig) {
			c.GAR = mustGAR(t, "average", 4, 0)
		}},
		{"fixed quorum alongside membership", func(c *ServerConfig) { c.Quorum = 3 }},
		{"nil NewGAR", func(c *ServerConfig) { c.Membership.NewGAR = nil }},
		{"FRatio at breakdown point", func(c *ServerConfig) { c.Membership.FRatio = 0.5 }},
		{"max below min", func(c *ServerConfig) { c.Membership.MaxWorkers = 1 }},
		{"negative stragglers", func(c *ServerConfig) { c.Membership.Stragglers = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base()
			mc := *cfg.Membership
			cfg.Membership = &mc
			tt.mutate(&cfg)
			if _, err := NewServer(cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestJoinWelcomeFrameRoundTrip(t *testing.T) {
	vec := []float64{0.5, -1.25, 3e-200}
	frames := [][]byte{
		appendJoinFrame(nil, Join{WorkerID: 9, LastRound: 41}),
		appendJoinFrame(nil, Join{WorkerID: 0, LastRound: -1}), // fresh-join sentinel
		appendWelcomeFrame(nil, Welcome{Round: 12, Epoch: 4, Weights: vec, Velocity: vec}),
		appendWelcomeFrame(nil, Welcome{Round: 0, Epoch: 0}),
	}
	for i, frame := range frames {
		kind, n, err := parseHeader(frame, DefaultMaxFrameBytes)
		if err != nil {
			t.Fatalf("frame %d: parse header: %v", i, err)
		}
		if got := frameHeaderSize + n; got != len(frame) {
			t.Fatalf("frame %d: declared size %d, real %d", i, got, len(frame))
		}
		var m message
		if err := decodePayload(kind, frame[frameHeaderSize:], &m); err != nil {
			t.Fatalf("frame %d: decode: %v", i, err)
		}
		out, err := appendMessageFrame(nil, &m)
		if err != nil {
			t.Fatalf("frame %d: re-encode: %v", i, err)
		}
		if !bytes.Equal(out, frame) {
			t.Errorf("frame %d: round trip not bit-identical:\n in  %x\n out %x", i, frame, out)
		}
	}

	// The fresh-join sentinel must decode back to -1, not MaxUint32.
	var m message
	fresh := appendJoinFrame(nil, Join{WorkerID: 3, LastRound: -1})
	if err := decodePayload(msgJoin, fresh[frameHeaderSize:], &m); err != nil {
		t.Fatal(err)
	}
	if m.join.LastRound != -1 {
		t.Errorf("fresh join decoded LastRound = %d, want -1", m.join.LastRound)
	}
}

func TestJoinWelcomeDecodeRejections(t *testing.T) {
	join := appendJoinFrame(nil, Join{WorkerID: 1, LastRound: 5})
	welcome := appendWelcomeFrame(nil, Welcome{Round: 1, Epoch: 0, Weights: []float64{1, 2}, Velocity: []float64{3, 4}})
	tests := []struct {
		name    string
		kind    msgType
		payload []byte
	}{
		{"join short", msgJoin, join[frameHeaderSize : frameHeaderSize+7]},
		{"join long", msgJoin, append(append([]byte(nil), join[frameHeaderSize:]...), 0)},
		{"welcome short", msgWelcome, welcome[frameHeaderSize : frameHeaderSize+11]},
		{"welcome dim mismatch", msgWelcome, welcome[frameHeaderSize : len(welcome)-8]},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var m message
			if err := decodePayload(tt.kind, tt.payload, &m); !errors.Is(err, ErrBadPayload) {
				t.Errorf("error = %v, want ErrBadPayload", err)
			}
			if m.kind != msgInvalid {
				t.Errorf("message kind = %d after failed decode, want invalid", m.kind)
			}
		})
	}
}

func TestJoinWelcomeConnExchange(t *testing.T) {
	client, server := connPair(t, 0)
	deadline := time.Now().Add(time.Second)

	if err := client.sendJoin(Join{WorkerID: 5, LastRound: 7}, deadline); err != nil {
		t.Fatal(err)
	}
	m, err := server.receive(deadline)
	if err != nil {
		t.Fatal(err)
	}
	if m.kind != msgJoin || m.join.WorkerID != 5 || m.join.LastRound != 7 {
		t.Fatalf("got %+v", m.join)
	}

	w := []float64{1, 2, 3}
	v := []float64{-1, -2, -3}
	if err := server.sendWelcome(Welcome{Round: 8, Epoch: 2, Weights: w, Velocity: v}, deadline); err != nil {
		t.Fatal(err)
	}
	m, err = client.receive(deadline)
	if err != nil {
		t.Fatal(err)
	}
	if m.kind != msgWelcome || m.welcome.Round != 8 || m.welcome.Epoch != 2 ||
		!vecmath.ApproxEqual(m.welcome.Weights, w, 0) || !vecmath.ApproxEqual(m.welcome.Velocity, v, 0) {
		t.Fatalf("got %+v", m.welcome)
	}
}

// TestMembershipBasicRunBooks runs a stable population through epoched
// membership mode: with nobody churning, the epochs must tile the run
// exactly and every epoch must carry the full view with zero misses.
func TestMembershipBasicRunBooks(t *testing.T) {
	const (
		n           = 4
		steps       = 12
		epochRounds = 4
	)
	tr := NewChanTransport()
	ds := testDataset(t)
	m := testModel(t)
	srvCfg := ServerConfig{
		Addr:         "members",
		Transport:    tr,
		Membership:   testMembership(n, n, 0.25, epochRounds),
		Dim:          m.Dim(),
		Steps:        steps,
		LearningRate: 2,
		Momentum:     0.9,
		RoundTimeout: 5 * time.Second,
	}
	workers := make([]WorkerConfig, n)
	for i := range workers {
		workers[i] = WorkerConfig{
			Transport:  tr,
			WorkerID:   i,
			Model:      m,
			Train:      ds,
			BatchSize:  20,
			ClipNorm:   0.01,
			Seed:       uint64(i + 1),
			Membership: true,
		}
	}
	srvRes, workerRes, workerErrs := launch(t, srvCfg, workers)
	for i, err := range workerErrs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	if got := srvRes.History.Len(); got != steps {
		t.Errorf("server finished %d rounds, want %d", got, steps)
	}
	if err := membership.BalanceEpochs(srvRes.Epochs); err != nil {
		t.Errorf("epoch books: %v", err)
	}
	if got, want := len(srvRes.Epochs), steps/epochRounds; got != want {
		t.Fatalf("epochs = %d, want %d", got, want)
	}
	for e, st := range srvRes.Epochs {
		if st.Epoch != e || st.N != n || st.F != 1 || st.Rounds != epochRounds ||
			st.Accepted != n*epochRounds || st.Missed != 0 {
			t.Errorf("epoch %d stat %+v, want full stable view", e, st)
		}
		for i, id := range st.View {
			if id != i {
				t.Errorf("epoch %d view %v, want [0 1 2 3]", e, st.View)
				break
			}
		}
	}
	if got, want := srvRes.AcceptedGradients, n*steps; got != want {
		t.Errorf("accepted = %d, want %d", got, want)
	}
	for i, wr := range workerRes {
		if wr.Rounds != steps || wr.Rejoins != 0 || wr.FastForwarded != 0 {
			t.Errorf("worker %d result %+v, want %d clean rounds", i, wr, steps)
		}
		if !vecmath.ApproxEqual(wr.FinalParams, srvRes.Params, 0) {
			t.Errorf("worker %d final params differ from server", i)
		}
	}
}

// TestMembershipLateJoin starts a two-worker run, then injects a third
// worker mid-run: it must be admitted at an epoch boundary, fast-forward
// its streams to the cohort's position, and the per-epoch books must keep
// balancing against the realized views.
func TestMembershipLateJoin(t *testing.T) {
	const (
		steps       = 9
		epochRounds = 3
	)
	tr := NewChanTransport()
	ds := testDataset(t)
	m := testModel(t)

	lateCfg := WorkerConfig{
		Addr:       "late",
		Transport:  tr,
		WorkerID:   2,
		Model:      m,
		Train:      ds,
		BatchSize:  20,
		ClipNorm:   0.01,
		Seed:       3,
		Membership: true,
	}
	var (
		lateOnce sync.Once
		lateWG   sync.WaitGroup
		lateRes  *WorkerResult
		lateErr  error
	)
	ctx, cancel := testContext(t)
	defer cancel()

	hs := newHandshakeLog()
	srvCfg := ServerConfig{
		Addr:         "late",
		Transport:    tr,
		Membership:   testMembership(2, 3, 0.25, epochRounds),
		Dim:          m.Dim(),
		Steps:        steps,
		LearningRate: 2,
		RoundTimeout: 2 * time.Second,
		Logf:         hs.logf,
		StepHook: func(rec metrics.StepRecord, w []float64) error {
			// Launch the late joiner once the first round has committed, so
			// its admission necessarily happens at a later boundary. The
			// hold below is safe on a loaded box: the late joiner dials as
			// soon as it is launched, and nothing it waits for needs the
			// server to advance.
			lateOnce.Do(func() {
				lateWG.Add(1)
				go func() {
					defer lateWG.Done()
					lateRes, lateErr = RunWorker(ctx, lateCfg)
				}()
			})
			// ...and hold the last round before the final boundary until the
			// server has registered it, so that boundary at the latest
			// admits it however slowly the dial was scheduled.
			if rec.Step == steps-epochRounds-1 {
				return hs.wait(ctx, lateCfg.WorkerID, 1)
			}
			return nil
		},
	}
	workers := make([]WorkerConfig, 2)
	for i := range workers {
		workers[i] = WorkerConfig{
			Transport:  tr,
			WorkerID:   i,
			Model:      m,
			Train:      ds,
			BatchSize:  20,
			ClipNorm:   0.01,
			Seed:       uint64(i + 1),
			Membership: true,
		}
	}
	srvRes, _, workerErrs := launch(t, srvCfg, workers)
	lateWG.Wait()
	for i, err := range workerErrs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	if lateErr != nil {
		t.Fatalf("late worker: %v", lateErr)
	}
	if err := membership.BalanceEpochs(srvRes.Epochs); err != nil {
		t.Errorf("epoch books: %v", err)
	}
	if first := srvRes.Epochs[0]; first.N != 2 {
		t.Errorf("first epoch n = %d, want 2 (late worker admitted later)", first.N)
	}
	last := srvRes.Epochs[len(srvRes.Epochs)-1]
	if last.N != 3 || !membership.View(viewOf(last)).Contains(2) {
		t.Errorf("last epoch %+v does not include the late joiner", last)
	}
	// The late joiner replayed every round it was not yet a member for:
	// its stream position must end exactly at steps.
	if lateRes.FastForwarded == 0 || lateRes.Rounds+lateRes.FastForwarded != steps {
		t.Errorf("late joiner rounds %d + fast-forwarded %d != %d",
			lateRes.Rounds, lateRes.FastForwarded, steps)
	}
	if !vecmath.ApproxEqual(lateRes.FinalParams, srvRes.Params, 0) {
		t.Error("late joiner final params differ from server")
	}
}

// viewOf rebuilds a View from an EpochStat for Contains checks.
func viewOf(st membership.EpochStat) membership.View {
	return membership.View{Epoch: st.Epoch, Members: st.View, F: st.F}
}

// TestMembershipCrashEvictionAndRestart is the join/leave lifecycle over a
// real run: a worker crashes mid-run, is evicted at a boundary (shrinking
// the view), and a fresh process with the same id rejoins epochs later,
// fast-forwarding from scratch to the cohort's position. Both of worker 2's
// dials wait on events, and the hook that holds the server for each dial
// waits for nothing else, so the schedule is the same on a loaded box.
func TestMembershipCrashEvictionAndRestart(t *testing.T) {
	const (
		steps       = 16
		epochRounds = 2
	)
	tr := NewChanTransport()
	ds := testDataset(t)
	m := testModel(t)

	ctx, cancel := testContext(t)
	defer cancel()

	crashGate := make(chan struct{})
	restartGate := make(chan struct{})
	hs := newHandshakeLog()
	srvCfg := ServerConfig{
		Addr:       "restart",
		Transport:  tr,
		Membership: testMembership(2, 3, 0.25, epochRounds),
		Dim:        m.Dim(),
		Steps:      steps,
		// Headroom for a loaded box: two live workers each missing two
		// rounds in a row would collapse the view. Only the crashed worker's
		// mute rounds (at most one epoch) ever wait this long.
		RoundTimeout: 2 * time.Second,
		LearningRate: 2,
		Logf:         hs.logf,
		StepHook: func(rec metrics.StepRecord, w []float64) error {
			switch rec.Step {
			case 1:
				// Let the crash-phase process dial, and hold round 1 until it
				// is registered: the boundary at round 2 admits it, and it
				// serves its two rounds long before the restart. Its dial
				// waits for nothing but this gate.
				close(crashGate)
				return hs.wait(ctx, 2, 1)
			case 8:
				close(restartGate)
			case steps - epochRounds - 1:
				// The restarted process (worker 2's second handshake) must be
				// registered before the final boundary. It dials once the
				// crash phase has ended (round 3) and round 8 has opened
				// restartGate, so it needs nothing more from the server.
				return hs.wait(ctx, 2, 2)
			}
			return nil
		},
	}
	srv, err := NewServer(srvCfg)
	if err != nil {
		t.Fatal(err)
	}

	baseWorker := func(id int) WorkerConfig {
		return WorkerConfig{
			Addr:       "restart",
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
	workerErrs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, workerErrs[i] = RunWorker(ctx, baseWorker(i))
		}(i)
	}
	var restartRes *WorkerResult
	var restartErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		crash := baseWorker(2)
		crash.MaxRounds = 2
		// The doomed process dials only once round 1 has committed, so
		// the run starts with the two survivors at the floor of two (were it
		// one of those two, its eviction could find the third worker not yet
		// handshaken and collapse the view), and as late as the round-1 hook
		// allows.
		crash.Transport = &gatedDialTransport{inner: tr, gate: func(ctx context.Context) error {
			select {
			case <-crashGate:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}}
		if _, err := RunWorker(ctx, crash); err != nil {
			restartErr = fmt.Errorf("crash phase: %w", err)
			return
		}
		// The process is gone; epochs later a fresh one takes over the id.
		select {
		case <-restartGate:
		case <-ctx.Done():
			restartErr = ctx.Err()
			return
		}
		restartRes, restartErr = RunWorker(ctx, baseWorker(2))
	}()

	srvRes, srvErr := srv.Run(ctx)
	if srvErr != nil {
		// Fail fast: nothing is left to wait for, and the restart goroutine
		// would otherwise sit on its gate until the test context expires.
		cancel()
		wg.Wait()
		t.Fatalf("server: %v", srvErr)
	}
	wg.Wait()
	for i, err := range workerErrs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	if restartErr != nil {
		t.Fatalf("restarted worker: %v", restartErr)
	}
	if err := membership.BalanceEpochs(srvRes.Epochs); err != nil {
		t.Errorf("epoch books: %v", err)
	}
	// The eviction must be visible: after an epoch that held worker 2, some
	// epoch ran with the shrunken view.
	admitted, evicted := false, false
	for _, st := range srvRes.Epochs {
		switch has := viewOf(st).Contains(2); {
		case has:
			admitted = true
		case admitted && st.N == 2:
			evicted = true
		}
	}
	if !admitted || !evicted {
		t.Errorf("epochs %+v: crashed worker admitted=%v, then evicted=%v, want both", srvRes.Epochs, admitted, evicted)
	}
	// And the recovery too: the final epoch includes the restarted worker.
	last := srvRes.Epochs[len(srvRes.Epochs)-1]
	if last.N != 3 || !viewOf(last).Contains(2) {
		t.Errorf("last epoch %+v does not include the restarted worker", last)
	}
	// The fresh process consumed no stream state before the welcome, so its
	// position after fast-forward plus live rounds is exactly steps.
	if restartRes.FastForwarded == 0 || restartRes.Rounds+restartRes.FastForwarded != steps {
		t.Errorf("restart rounds %d + fast-forwarded %d != %d",
			restartRes.Rounds, restartRes.FastForwarded, steps)
	}
	if !vecmath.ApproxEqual(restartRes.FinalParams, srvRes.Params, 0) {
		t.Error("restarted worker final params differ from server")
	}
}

// scriptVec builds the deterministic parameter vector the scripted servers
// broadcast for a given step, so the control and rejoin runs feed the
// worker byte-identical inputs.
func scriptVec(step, dim int) []float64 {
	w := make([]float64, dim)
	for j := range w {
		w[j] = 0.25*float64(step) + 0.0625*float64(j)
	}
	return w
}

// scriptConn accepts one connection and reads the opening join frame.
func scriptConn(ln Listener, maxFrame int) (*conn, Join, error) {
	raw, err := ln.Accept()
	if err != nil {
		return nil, Join{}, err
	}
	c := newConnMax(raw, maxFrame)
	m, err := c.receive(time.Now().Add(5 * time.Second))
	if err != nil {
		_ = c.close()
		return nil, Join{}, fmt.Errorf("opening frame: %w", err)
	}
	if m.kind != msgJoin {
		_ = c.close()
		return nil, Join{}, fmt.Errorf("opening frame kind %d, want join", m.kind)
	}
	return c, m.join, nil
}

// scriptRound broadcasts step's params and returns a copy of the gradient
// the worker answers with.
func scriptRound(c *conn, step, dim int) ([]float64, error) {
	deadline := time.Now().Add(5 * time.Second)
	if err := c.sendParams(Params{Step: step, Weights: scriptVec(step, dim)}, deadline); err != nil {
		return nil, fmt.Errorf("params %d: %w", step, err)
	}
	m, err := c.receive(deadline)
	if err != nil {
		return nil, fmt.Errorf("gradient %d: %w", step, err)
	}
	if m.kind != msgGradient || m.gradient.Step != step {
		return nil, fmt.Errorf("round %d: got kind %d step %d", step, m.kind, m.gradient.Step)
	}
	return append([]float64(nil), m.gradient.Grad...), nil
}

// TestMembershipRejoinBitIdentity is the fast-forward correctness proof at
// the wire level: a worker that loses its connection after round 1 and is
// readmitted at round 4 must submit, for rounds 4 and 5, gradients
// bit-identical to a never-disconnected run — the replayed batch and noise
// draws land its RNG streams exactly where the cohort's are. The rejoin
// script also injects a duplicated broadcast, which the worker must absorb
// without desyncing its streams (idempotent round handling).
func TestMembershipRejoinBitIdentity(t *testing.T) {
	ds := testDataset(t)
	m := testModel(t)
	dim := m.Dim()
	mech, err := dp.NewGaussianWithSigma(0.05)
	if err != nil {
		t.Fatal(err)
	}
	workerCfg := func(addr string, tr Transport) WorkerConfig {
		return WorkerConfig{
			Addr:       addr,
			Transport:  tr,
			WorkerID:   0,
			Model:      m,
			Train:      ds,
			BatchSize:  20,
			ClipNorm:   0.01,
			Mechanism:  mech,
			Seed:       7,
			Membership: true,
		}
	}
	ctx, cancel := testContext(t)
	defer cancel()

	type scriptOut struct {
		grads map[int][]float64
		err   error
	}

	// Control: rounds 0..5 over one unbroken connection.
	control := make(chan scriptOut, 1)
	trC := NewChanTransport()
	lnC, err := trC.Listen("ctl")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		out := scriptOut{grads: map[int][]float64{}}
		defer func() { control <- out }()
		c, join, err := scriptConn(lnC, 0)
		if err != nil {
			out.err = err
			return
		}
		defer c.close()
		if join.LastRound != -1 {
			out.err = fmt.Errorf("control join.LastRound = %d, want -1", join.LastRound)
			return
		}
		deadline := time.Now().Add(5 * time.Second)
		if err := c.sendWelcome(Welcome{Round: 0, Weights: scriptVec(0, dim), Velocity: make([]float64, dim)}, deadline); err != nil {
			out.err = err
			return
		}
		for step := 0; step <= 5; step++ {
			g, err := scriptRound(c, step, dim)
			if err != nil {
				out.err = err
				return
			}
			out.grads[step] = g
		}
		out.err = c.sendParams(Params{Step: 6, Weights: scriptVec(6, dim), Done: true}, time.Now().Add(5*time.Second))
	}()
	ctlRes, err := RunWorker(ctx, workerCfg("ctl", trC))
	if err != nil {
		t.Fatalf("control worker: %v", err)
	}
	ctlOut := <-control
	if ctlOut.err != nil {
		t.Fatalf("control script: %v", ctlOut.err)
	}
	if ctlRes.Rejoins != 0 || ctlRes.FastForwarded != 0 || ctlRes.Rounds != 6 {
		t.Fatalf("control result %+v, want 6 unbroken rounds", ctlRes)
	}

	// Rejoin: rounds 0..1, connection killed, readmission at round 4 with a
	// welcome; rounds 2..3 happen while the worker is gone.
	rejoin := make(chan scriptOut, 1)
	trR := NewChanTransport()
	lnR, err := trR.Listen("rejoin")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		out := scriptOut{grads: map[int][]float64{}}
		defer func() { rejoin <- out }()

		c, join, err := scriptConn(lnR, 0)
		if err != nil {
			out.err = err
			return
		}
		if join.LastRound != -1 {
			_ = c.close()
			out.err = fmt.Errorf("first join.LastRound = %d, want -1", join.LastRound)
			return
		}
		deadline := time.Now().Add(5 * time.Second)
		if err := c.sendWelcome(Welcome{Round: 0, Weights: scriptVec(0, dim), Velocity: make([]float64, dim)}, deadline); err != nil {
			_ = c.close()
			out.err = err
			return
		}
		for step := 0; step <= 1; step++ {
			g, err := scriptRound(c, step, dim)
			if err != nil {
				_ = c.close()
				out.err = err
				return
			}
			out.grads[step] = g
		}
		_ = c.close() // server-side kill: the worker must redial and rejoin

		c2, join2, err := scriptConn(lnR, 0)
		if err != nil {
			out.err = err
			return
		}
		defer c2.close()
		// The rejoin advertises the exact stream position: rounds 0 and 1
		// were consumed, so LastRound is 1.
		if join2.LastRound != 1 {
			out.err = fmt.Errorf("rejoin join.LastRound = %d, want 1", join2.LastRound)
			return
		}
		deadline = time.Now().Add(5 * time.Second)
		if err := c2.sendWelcome(Welcome{Round: 4, Epoch: 2, Weights: scriptVec(4, dim), Velocity: make([]float64, dim)}, deadline); err != nil {
			out.err = err
			return
		}
		g4, err := scriptRound(c2, 4, dim)
		if err != nil {
			out.err = err
			return
		}
		out.grads[4] = g4
		// Duplicate round 4's broadcast: an already-consumed round must be
		// skipped silently — the next gradient received must be round 5's,
		// not a replayed round 4.
		if err := c2.sendParams(Params{Step: 4, Weights: scriptVec(4, dim)}, time.Now().Add(5*time.Second)); err != nil {
			out.err = err
			return
		}
		g5, err := scriptRound(c2, 5, dim)
		if err != nil {
			out.err = fmt.Errorf("after duplicated broadcast: %w", err)
			return
		}
		out.grads[5] = g5
		out.err = c2.sendParams(Params{Step: 6, Weights: scriptVec(6, dim), Done: true}, time.Now().Add(5*time.Second))
	}()
	rejRes, err := RunWorker(ctx, workerCfg("rejoin", trR))
	if err != nil {
		t.Fatalf("rejoin worker: %v", err)
	}
	rejOut := <-rejoin
	if rejOut.err != nil {
		t.Fatalf("rejoin script: %v", rejOut.err)
	}
	if rejRes.Rejoins != 1 {
		t.Errorf("rejoins = %d, want 1", rejRes.Rejoins)
	}
	if rejRes.FastForwarded != 2 {
		t.Errorf("fast-forwarded = %d rounds, want 2 (rounds 2 and 3)", rejRes.FastForwarded)
	}
	for _, step := range []int{4, 5} {
		want, got := ctlOut.grads[step], rejOut.grads[step]
		if !vecmath.ApproxEqual(got, want, 0) {
			t.Errorf("round %d gradient after rejoin differs from unbroken run", step)
		}
	}
}

// flakyDialTransport hands out a faulty connection on the first dial and
// clean ones afterwards: the redial after an eviction lands on a healed
// network, which is how a partition that outlives the fault window is
// modelled on a per-connection transport.
type flakyDialTransport struct {
	mu    sync.Mutex
	first Transport
	rest  Transport
	dials int
}

func (f *flakyDialTransport) Listen(addr string) (Listener, error) { return f.rest.Listen(addr) }

func (f *flakyDialTransport) Dial(ctx context.Context, addr string) (Conn, error) {
	f.mu.Lock()
	f.dials++
	d := f.dials
	f.mu.Unlock()
	if d == 1 {
		return f.first.Dial(ctx, addr)
	}
	return f.rest.Dial(ctx, addr)
}

// gatedDialTransport holds every dial until gate returns, pinning handshake
// order on an event in tests that need a known worker in the epoch-0 view.
type gatedDialTransport struct {
	inner Transport
	gate  func(ctx context.Context) error
}

func (g *gatedDialTransport) Listen(addr string) (Listener, error) { return g.inner.Listen(addr) }

func (g *gatedDialTransport) Dial(ctx context.Context, addr string) (Conn, error) {
	if err := g.gate(ctx); err != nil {
		return nil, err
	}
	return g.inner.Dial(ctx, addr)
}

// TestMembershipPartitionEvictRejoin closes the self-stabilization loop
// end to end: a partition window cuts worker 3 off after round 1, the
// missed-round streak evicts it at the second boundary (which aborts its
// dead connection), the worker redials over the healed network, rejoins,
// is readmitted with a welcome one epoch later and finishes the run with
// exact books. Worker 3's whole schedule is pinned on events — it handshakes
// before any clean worker dials, and the epoch its redial must land in is held
// until the server has registered it — so every assertion about it is an
// equality. The one thing the floor semantics leave open is epoch 0's size:
// the gather phase fires at the third handshake, so the last clean worker is
// admitted either then or at the first boundary.
func TestMembershipPartitionEvictRejoin(t *testing.T) {
	const (
		n           = 4
		steps       = 15
		epochRounds = 3
	)
	tr := NewChanTransport()
	ds := testDataset(t)
	m := testModel(t)

	ctx, cancel := testContext(t)
	defer cancel()
	hs := newHandshakeLog()
	srvCfg := ServerConfig{
		Addr:      "partition",
		Transport: tr,
		// The floor is 3, not 4: evicting the partitioned worker must leave
		// a legal view.
		Membership:   testMembership(n-1, n, 0.25, epochRounds),
		Dim:          m.Dim(),
		Steps:        steps,
		LearningRate: 2,
		RoundTimeout: 500 * time.Millisecond,
		Logf:         hs.logf,
		StepHook: func(rec metrics.StepRecord, _ []float64) error {
			// Epoch 2 (rounds 6-8) opens with worker 3's eviction; hold its
			// first round until the redial is registered, so the rejoin is
			// admitted at round 9 and not whenever the dial got scheduled.
			// The hold is safe on a loaded box: the boundary before round 6
			// has already aborted worker 3's dead connection, and its redial
			// needs nothing more from the server.
			if rec.Step == 2*epochRounds {
				return hs.wait(ctx, 3, 2)
			}
			return nil
		},
	}
	// Both directions of worker 3's first connection lose every frame from
	// round 2 on (SkipFirst exempts the join and welcome): a network
	// partition that never heals for that connection.
	cut := []PartitionWindow{{From: 3, To: 1 << 30}}
	partitioned := &flakyDialTransport{
		first: tr.WithFaults(
			FaultConfig{Seed: 1, SkipFirst: 1, Partitions: cut},
			FaultConfig{Seed: 2, SkipFirst: 1, Partitions: cut},
		),
		rest: tr,
	}
	workers := make([]WorkerConfig, n)
	for i := range workers {
		workers[i] = WorkerConfig{
			// The clean workers dial only once the partitioned one is
			// registered: it is in the epoch-0 view whoever else is.
			Transport: &gatedDialTransport{inner: tr, gate: func(ctx context.Context) error {
				return hs.wait(ctx, 3, 1)
			}},
			WorkerID:   i,
			Model:      m,
			Train:      ds,
			BatchSize:  20,
			ClipNorm:   0.01,
			Seed:       uint64(i + 1),
			Membership: true,
		}
	}
	workers[3].Transport = partitioned

	srvRes, workerRes, workerErrs := launch(t, srvCfg, workers)
	for i, err := range workerErrs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	if err := membership.BalanceEpochs(srvRes.Epochs); err != nil {
		t.Errorf("epoch books: %v", err)
	}
	if got, want := len(srvRes.Epochs), steps/epochRounds; got != want {
		t.Fatalf("epochs = %d, want %d", got, want)
	}
	// Epoch 0 holds worker 3 and at least the floor; from epoch 1 on the
	// schedule is exact: full view (worker 3 mute from round 2, streak 1 at
	// the first boundary), eviction at the boundary before epoch 2,
	// readmission at the boundary before epoch 3.
	if first := srvRes.Epochs[0]; first.N < n-1 || !viewOf(first).Contains(3) {
		t.Errorf("epoch 0 %+v, want at least %d members including worker 3", first, n-1)
	}
	for i, want := range []int{4, 3, 4, 4} {
		if st := srvRes.Epochs[i+1]; st.N != want {
			t.Errorf("epoch %d n = %d, want %d", st.Epoch, st.N, want)
		}
	}
	if viewOf(srvRes.Epochs[2]).Contains(3) {
		t.Error("epoch 2 still contains the partitioned worker")
	}
	w3 := workerRes[3]
	if w3.Rejoins != 1 {
		t.Errorf("worker 3 rejoins = %d, want 1", w3.Rejoins)
	}
	// Cut off after consuming rounds 0-1, welcomed back at round 9: exactly
	// rounds 2..8 are replayed.
	if w3.FastForwarded != 7 {
		t.Errorf("worker 3 fast-forwarded %d rounds, want 7", w3.FastForwarded)
	}
	if w3.Rounds+w3.FastForwarded != steps {
		t.Errorf("worker 3 rounds %d + fast-forwarded %d != %d", w3.Rounds, w3.FastForwarded, steps)
	}
	if !vecmath.ApproxEqual(w3.FinalParams, srvRes.Params, 0) {
		t.Error("worker 3 final params differ from server after rejoin")
	}
	// Worker 3's silent rounds 2-5 are the only misses.
	if srvRes.MissedGradients != 4 {
		t.Errorf("missed gradients = %d, want exactly 4 (rounds 2-5)", srvRes.MissedGradients)
	}
}

// failingTransport refuses every dial.
type failingTransport struct{ calls int }

func (f *failingTransport) Listen(addr string) (Listener, error) {
	return nil, errors.New("test: no listen")
}

func (f *failingTransport) Dial(ctx context.Context, addr string) (Conn, error) {
	f.calls++
	return nil, errors.New("test: connection refused")
}

func TestDialRetryBackoffSchedule(t *testing.T) {
	var slept []time.Duration
	ft := &failingTransport{}
	cfg := &WorkerConfig{
		Addr:           "nowhere",
		Transport:      ft,
		DialTimeout:    time.Second,
		DialRetries:    4,
		DialBackoff:    10 * time.Millisecond,
		MaxDialBackoff: 40 * time.Millisecond,
		Sleep:          func(d time.Duration) { slept = append(slept, d) },
	}
	_, err := dialWithRetry(context.Background(), cfg)
	if err == nil {
		t.Fatal("dial against a dead transport succeeded")
	}
	if !strings.Contains(err.Error(), "5 attempts") {
		t.Errorf("error %q does not report the attempt count", err)
	}
	if ft.calls != 5 {
		t.Errorf("dial attempts = %d, want 5", ft.calls)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond, 40 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("backoff schedule %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Errorf("backoff %d = %v, want %v (doubling, capped)", i, slept[i], want[i])
		}
	}
}

func TestDialRetryRecovers(t *testing.T) {
	tr := NewChanTransport()
	ln, err := tr.Listen("eventually")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var slept []time.Duration
	fails := 2
	cfg := &WorkerConfig{
		Addr:        "eventually",
		DialTimeout: time.Second,
		DialBackoff: 10 * time.Millisecond,
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
		Transport: transportFunc(func(ctx context.Context, addr string) (Conn, error) {
			if fails > 0 {
				fails--
				return nil, errors.New("test: not yet")
			}
			return tr.Dial(ctx, addr)
		}),
	}
	raw, err := dialWithRetry(context.Background(), cfg)
	if err != nil {
		t.Fatalf("dial never recovered: %v", err)
	}
	_ = raw.Close()
	if len(slept) != 2 || slept[0] != 10*time.Millisecond || slept[1] != 20*time.Millisecond {
		t.Errorf("backoff schedule %v, want [10ms 20ms]", slept)
	}
}

// transportFunc adapts a dial closure to the Transport interface.
type transportFunc func(ctx context.Context, addr string) (Conn, error)

func (f transportFunc) Listen(addr string) (Listener, error) {
	return nil, errors.New("test: dial-only transport")
}

func (f transportFunc) Dial(ctx context.Context, addr string) (Conn, error) { return f(ctx, addr) }
