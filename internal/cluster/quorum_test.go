package cluster

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpbyz/internal/checkpoint"
	"dpbyz/internal/metrics"
)

// helloOnly dials the server and registers a worker id, then never submits a
// gradient — a mute peer that keeps the server's collect phase waiting.
// Returns the connection so the caller controls its lifetime.
func helloOnly(t *testing.T, tr Transport, addr string, id int) *conn {
	t.Helper()
	raw, err := tr.Dial(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	c := newConn(raw)
	if err := c.sendHello(Hello{WorkerID: id}, time.Now().Add(2*time.Second)); err != nil {
		t.Fatal(err)
	}
	return c
}

// scriptedWorker handshakes as worker id — with a join when joined, a hello
// otherwise — and answers the first `answer` parameter broadcasts with a zero
// gradient; after that it stays registered but mute. The returned channel is
// closed when the broadcast it will not answer has arrived, i.e. once the
// server is collecting a round that only its deadline or a cancellation can
// end. The reader goroutine exits when the server drops the connection.
func scriptedWorker(t *testing.T, tr Transport, addr string, id int, joined bool, answer, dim int) <-chan struct{} {
	t.Helper()
	raw, err := tr.Dial(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	c := newConn(raw)
	deadline := time.Now().Add(5 * time.Second)
	if joined {
		err = c.sendJoin(Join{WorkerID: id, LastRound: -1}, deadline)
	} else {
		err = c.sendHello(Hello{WorkerID: id}, deadline)
	}
	if err != nil {
		t.Fatal(err)
	}
	mute := make(chan struct{})
	go func() {
		defer c.close()
		answered := 0
		for {
			m, err := c.receive(time.Time{})
			if err != nil {
				return
			}
			if m.kind != msgParams || m.params.Done {
				continue
			}
			switch {
			case answered < answer:
				g := Gradient{WorkerID: id, Step: m.params.Step, Grad: make([]float64, dim)}
				if err := c.sendGradient(g, time.Now().Add(5*time.Second)); err != nil {
					return
				}
			case answered == answer:
				close(mute) // this and every further broadcast go unanswered
			}
			answered++
		}
	}()
	return mute
}

// Regression test for the cancelled-round commit bug and the graceful-stop
// contract, on the one round loop under both config shapes. A context
// cancellation that lands mid-collect used to fall through to zero-padding,
// aggregation, the momentum update and the step hook — committing a round
// built from a cancelled collect; and an epoched server used to return from
// either cancellation point without flushing anything. Cancellation must
// abort with NO side effects on the trajectory — no history record, no hook
// call, no snapshot OF THE CANCELLED ROUND — and flush exactly one final
// snapshot of the completed prefix, so resumable progress survives an
// interrupt; a flush that fails is the error the caller sees.
func TestServerCancelMidCollectCommitsNothing(t *testing.T) {
	const (
		n     = 2
		dim   = 5
		steps = 3
	)
	errFlush := errors.New("test: disk full")
	for _, shape := range []string{"fixed", "membership"} {
		for _, at := range []string{"pre-round check", "mid-collect"} {
			for _, flushFails := range []bool{false, true} {
				name := shape + "/" + at
				if flushFails {
					name += "/flush fails"
				}
				t.Run(name, func(t *testing.T) {
					tr := NewChanTransport()
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					var hookCalls, snapCalls, lastSnapStep atomic.Int64
					cfg := ServerConfig{
						Addr:         "cancel",
						Transport:    tr,
						Dim:          dim,
						Steps:        steps,
						LearningRate: 1,
						// Far beyond the test's lifetime: a collect phase can
						// only end by quorum or by the cancellation under test.
						RoundTimeout: time.Hour,
						StepHook: func(metrics.StepRecord, []float64) error {
							hookCalls.Add(1)
							if at == "pre-round check" {
								cancel() // round 0 committed; round 1's check sees it
							}
							return nil
						},
						// Never periodic before the cancellation: the only
						// snapshot is the final flush.
						SnapshotEvery: steps,
						SnapshotFunc: func(st *checkpoint.RunState) error {
							snapCalls.Add(1)
							lastSnapStep.Store(int64(st.Step))
							if flushFails {
								return errFlush
							}
							return nil
						},
					}
					if shape == "fixed" {
						cfg.GAR = mustGAR(t, "average", n, 0)
					} else {
						cfg.Membership = testMembership(n, n, 0, steps)
					}
					srv, err := NewServer(cfg)
					if err != nil {
						t.Fatal(err)
					}
					errCh := make(chan error, 1)
					go func() {
						_, runErr := srv.Run(ctx)
						errCh <- runErr
					}()

					// Mid-collect: registered-but-mute workers, so the server
					// broadcasts round 0 and blocks in collect with zero
					// submissions; cancel once every broadcast has landed.
					// Pre-round: the workers answer and the hook cancels.
					committed, answer := 0, 0
					if at == "pre-round check" {
						committed, answer = 1, steps
					}
					mutes := make([]<-chan struct{}, n)
					for id := range mutes {
						mutes[id] = scriptedWorker(t, tr, "cancel", id, shape == "membership", answer, dim)
					}
					if at == "mid-collect" {
						for _, mute := range mutes {
							<-mute
						}
						cancel()
					}

					select {
					case runErr := <-errCh:
						switch {
						case !flushFails && !errors.Is(runErr, context.Canceled):
							t.Errorf("error = %v, want context.Canceled", runErr)
						case flushFails && (!errors.Is(runErr, errFlush) || errors.Is(runErr, context.Canceled)):
							// A lost final snapshot must not pass for a clean
							// interrupt.
							t.Errorf("error = %v, want the flush error wrapped and context.Canceled not matched", runErr)
						}
					case <-time.After(10 * time.Second):
						t.Fatal("server did not return after cancellation")
					}
					if got := hookCalls.Load(); got != int64(committed) {
						t.Errorf("step hook ran %d times, want %d (the cancelled round must not commit)", got, committed)
					}
					// The cancelled round itself is never snapshotted; the
					// shutdown flushes exactly one snapshot of the completed
					// prefix.
					if got := snapCalls.Load(); got != 1 {
						t.Errorf("cancellation flushed %d snapshots, want exactly 1 (the completed prefix)", got)
					}
					if got := lastSnapStep.Load(); got != int64(committed) {
						t.Errorf("final snapshot claims %d completed rounds, want %d", got, committed)
					}
				})
			}
		}
	}
}

// slowWriteTransport wraps a Transport so every server-side (accepted)
// connection sleeps before each frame write — a slow outbound link that
// makes the parameter broadcast eat measurable wall-clock.
type slowWriteTransport struct {
	Transport
	delay time.Duration
}

func (s slowWriteTransport) Listen(addr string) (Listener, error) {
	ln, err := s.Transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return slowListener{ln, s.delay}, nil
}

type slowListener struct {
	Listener
	delay time.Duration
}

func (l slowListener) Accept() (Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return slowWriteConn{c, l.delay}, nil
}

type slowWriteConn struct {
	Conn
	delay time.Duration
}

func (c slowWriteConn) Write(p []byte) (int, error) {
	time.Sleep(c.delay)
	return c.Conn.Write(p)
}

// Regression test for the stretched-round bug: the broadcast loop and the
// collect phase each used to take a fresh RoundTimeout, so a slow broadcast
// stretched the round's wall-clock toward 2× the configured budget. With one
// shared per-round deadline, the broadcast time comes out of the collection
// budget and each round ends at most RoundTimeout after it started.
func TestServerRoundSharesOneDeadline(t *testing.T) {
	const (
		n     = 3
		steps = 3
		rt    = 600 * time.Millisecond
		delay = 150 * time.Millisecond // per broadcast send: 450ms/round for n=3
	)
	tr := slowWriteTransport{NewChanTransport(), delay}
	m := testModel(t)
	ds := testDataset(t)
	srv, err := NewServer(ServerConfig{
		Addr:         "slow-link",
		Transport:    tr,
		GAR:          mustGAR(t, "average", n, 0),
		Dim:          m.Dim(),
		Steps:        steps,
		LearningRate: 1,
		RoundTimeout: rt,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < n-1; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			_, _ = RunWorker(ctx, WorkerConfig{
				Addr: "slow-link", Transport: tr, WorkerID: id,
				Model: m, Train: ds, BatchSize: 10, Seed: uint64(id + 1),
			})
		}(i)
	}
	// The mute third worker keeps every collect phase running to its
	// deadline, so the round length is observable rather than cut short by a
	// full quorum.
	mute := helloOnly(t, tr, "slow-link", n-1)
	defer mute.close()

	start := time.Now()
	res, runErr := srv.Run(ctx)
	elapsed := time.Since(start)
	cancel()
	wg.Wait()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if res.History.Len() != steps {
		t.Fatalf("server finished %d rounds, want %d", res.History.Len(), steps)
	}
	if res.MissedGradients < steps {
		t.Errorf("missed gradients = %d, want >= %d (one mute worker per round)",
			res.MissedGradients, steps)
	}
	// Shared-deadline budget: ~rt per round plus the final slow broadcast
	// (n×delay). The pre-fix behaviour — broadcast time (n×delay) PLUS a
	// fresh rt of collection per round — needs ≥ steps×(rt+n×delay) ≈ 3.15s
	// before the final broadcast; 3s cleanly separates the two.
	if limit := 3 * time.Second; elapsed >= limit {
		t.Errorf("run took %v, want < %v (round stretched past its RoundTimeout budget)",
			elapsed, limit)
	}
}

// A quorum server must fire each round as soon as Quorum submissions are in,
// never waiting on stragglers — and the books must record the cut exactly.
func TestServerQuorumFiresEarly(t *testing.T) {
	const (
		n      = 6
		quorum = 4
		steps  = 4
		delay  = 600 * time.Millisecond
	)
	tr := NewChanTransport()
	m := testModel(t)
	ds := testDataset(t)
	srv, err := NewServer(ServerConfig{
		Addr:         "quorum-early",
		Transport:    tr,
		GAR:          mustGAR(t, "average", n, 0),
		Dim:          m.Dim(),
		Steps:        steps,
		LearningRate: 1,
		RoundTimeout: 10 * time.Second,
		Quorum:       quorum,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	workerCtx, stopWorkers := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		cfg := WorkerConfig{
			Addr: "quorum-early", Transport: tr, WorkerID: i,
			Model: m, Train: ds, BatchSize: 10, Seed: uint64(i + 1),
		}
		if i >= quorum {
			cfg.RoundDelay = delay
		}
		wg.Add(1)
		go func(cfg WorkerConfig) {
			defer wg.Done()
			_, _ = RunWorker(workerCtx, cfg)
		}(cfg)
	}

	start := time.Now()
	res, runErr := srv.Run(ctx)
	elapsed := time.Since(start)
	stopWorkers() // release stragglers still sleeping out their delay
	wg.Wait()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if res.History.Len() != steps {
		t.Fatalf("server finished %d rounds, want %d", res.History.Len(), steps)
	}
	// Waiting on the stragglers would cost >= steps×delay = 2.4s; firing at
	// the quorum finishes in milliseconds.
	if limit := 1500 * time.Millisecond; elapsed >= limit {
		t.Errorf("quorum run took %v, want < %v (server waited for stragglers)", elapsed, limit)
	}
	if got, want := res.AcceptedGradients+res.MissedGradients, n*steps; got != want {
		t.Errorf("accepted %d + missed %d = %d, want exactly %d",
			res.AcceptedGradients, res.MissedGradients, got, want)
	}
	// Every round commits with exactly Quorum slots filled.
	if want := (n - quorum) * steps; res.MissedGradients != want {
		t.Errorf("missed gradients = %d, want exactly %d", res.MissedGradients, want)
	}
	if res.CreditedGradients != 0 {
		t.Errorf("credited %d frames without LateCredit", res.CreditedGradients)
	}
}

// With LateCredit the frame a worker computed one round ago fills its empty
// slot in the current round; without it the same frame is discarded. Both
// policies keep the accounting exact.
func TestServerQuorumLateCredit(t *testing.T) {
	const (
		n      = 4
		quorum = 3
		steps  = 5
		delay  = 200 * time.Millisecond
	)
	run := func(t *testing.T, lateCredit bool) *ServerResult {
		t.Helper()
		tr := NewChanTransport()
		m := testModel(t)
		ds := testDataset(t)
		srvCfg := ServerConfig{
			Addr:         "quorum-late",
			Transport:    tr,
			GAR:          mustGAR(t, "average", n, 0),
			Dim:          m.Dim(),
			Steps:        steps,
			LearningRate: 1,
			RoundTimeout: 5 * time.Second,
			Quorum:       quorum,
			LateCredit:   lateCredit,
		}
		workers := make([]WorkerConfig, n)
		for i := range workers {
			workers[i] = WorkerConfig{
				Transport: tr, WorkerID: i,
				Model: m, Train: ds, BatchSize: 10, Seed: uint64(i + 1),
			}
			if i >= n-2 {
				// Two slow workers: the quorum's third slot is only ever
				// filled by a slow frame, so late frames are in play every
				// round.
				workers[i].RoundDelay = delay
			}
		}
		res, _, _ := launch(t, srvCfg, workers)
		if res.History.Len() != steps {
			t.Fatalf("server finished %d rounds, want %d", res.History.Len(), steps)
		}
		if got, want := res.AcceptedGradients+res.MissedGradients, n*steps; got != want {
			t.Fatalf("accepted %d + missed %d = %d, want exactly %d",
				res.AcceptedGradients, res.MissedGradients, got, want)
		}
		if res.CreditedGradients > res.AcceptedGradients {
			t.Fatalf("credited %d exceeds accepted %d",
				res.CreditedGradients, res.AcceptedGradients)
		}
		return res
	}
	t.Run("credit", func(t *testing.T) {
		res := run(t, true)
		if res.CreditedGradients == 0 {
			t.Error("LateCredit run credited no late frames")
		}
	})
	t.Run("discard", func(t *testing.T) {
		res := run(t, false)
		if res.CreditedGradients != 0 {
			t.Errorf("credited %d frames without LateCredit", res.CreditedGradients)
		}
		if res.DiscardedSubmissions == 0 {
			t.Error("no late frames discarded despite two permanent stragglers")
		}
	})
}
