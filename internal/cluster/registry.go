package cluster

import (
	"errors"
	"fmt"
	"sync"

	"dpbyz/internal/membership"
)

// submissionDepth is how many gradients of one worker connection the server
// holds at once: its reader claims one per frame and the round loop hands it
// back after aggregation. Depth 1 covers the lock-step pipeline of an
// honest worker; the extra slots absorb duplicated or reordered frames
// from faulty channels. When a peer floods faster than the server
// consumes, further frames are dropped (and counted), never buffered:
// a hostile worker cannot force unbounded allocation.
const submissionDepth = 3

// workerConn tracks one handshaken worker connection. free holds its
// submissionDepth buffer slots: the reader swaps one into the conn's message
// as the next decode target whenever it hands a decoded gradient over
// (claim), and the round loop hands the gradient back after aggregation. A
// slot starts empty, so the decoder draws its buffer from the decode-scratch
// pool on first use, and a reader that exits returns what its free list
// holds to the pool (release): the steady state allocates no gradient-sized
// slices, and a conn allocates none it never decodes into.
type workerConn struct {
	id   int
	c    *conn
	free chan []float64
	// joined records the frame the connection opened with, which — not the
	// server's config — decides its handshake rules: a Join is answered
	// with a Welcome at admission and replaces a live connection of the
	// same id; a Hello gets no Welcome and yields to a live connection.
	joined bool
	// gone is set once the reader goroutine exited (guarded by the
	// registry's mutex): the connection can no longer submit.
	gone bool
}

func newWorkerConn(id int, c *conn, joined bool) *workerConn {
	free := make(chan []float64, submissionDepth)
	for i := 0; i < submissionDepth; i++ {
		free <- nil
	}
	return &workerConn{id: id, c: c, free: free, joined: joined}
}

// claim takes the decoded gradient g off the conn for the round loop. The
// vector is handed over, not copied: a free buffer takes its place in g as
// the conn's next decode target, so neither is left with two owners. It
// reports false, taking nothing, when no buffer is free — the peer is
// sending faster than rounds complete.
//
//dpbyz:hotpath
func (w *workerConn) claim(g *Gradient) ([]float64, bool) {
	select {
	case buf := <-w.free:
		buf, g.Grad = g.Grad, buf
		return buf, true
	default:
		return nil, false
	}
}

// release returns the buffers in w's free list to the decode-scratch pool.
// Only the reader claims from the list, so once it has exited they have no
// other owner; one the round loop hands back later stays with the conn.
func (w *workerConn) release() {
	for {
		select {
		case buf := <-w.free:
			putScratch(buf)
		default:
			return
		}
	}
}

// submission is one gradient handed from a reader goroutine to the round
// loop. grad was claimed from src and must be returned to src's free list.
type submission struct {
	src  *workerConn
	step int
	grad []float64
}

// errRegistryClosed turns away a handshake that raced the end of the run.
var errRegistryClosed = errors.New("cluster: server shutting down")

// memberRegistry connects the accept loop, the reader goroutines and the
// round loop: it owns the id → current-connection map and feeds handshake
// and disconnect events into the membership tracker in arrival order.
type memberRegistry struct {
	mu      sync.Mutex
	tracker *membership.Tracker
	cur     map[int]*workerConn
	// done is closed by close: it refuses further offers, so every reader
	// is registered before close starts waiting for them, and it releases a
	// reader parked on the hand-off to the round loop.
	done    chan struct{}
	readers sync.WaitGroup
	// notify wakes the gather phase when the population changes.
	notify chan struct{}
}

func newMemberRegistry(tr *membership.Tracker) *memberRegistry {
	return &memberRegistry{
		tracker: tr,
		cur:     make(map[int]*workerConn),
		done:    make(chan struct{}),
		notify:  make(chan struct{}, 1),
	}
}

// offer registers a handshaken connection for id and accounts for the reader
// goroutine the caller must start on it. A Join replaces the id's previous
// connection (newest wins — the common cause is the worker's own reconnect
// after a broken link; the stale conn is aborted). A Hello is rejected while
// the id has a live connection (first wins: a Hello worker never redials, so
// a second one is a stray or an impostor and must not displace a running
// worker). Ids outside the population range are rejected by the tracker.
func (r *memberRegistry) offer(id int, c *conn, joined bool) (*workerConn, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	select {
	case <-r.done:
		return nil, errRegistryClosed
	default:
	}
	old := r.cur[id]
	if !joined && old != nil && !old.gone {
		return nil, fmt.Errorf("%w: worker %d already has a live connection", ErrBadHello, id)
	}
	if err := r.tracker.Handshake(id); err != nil {
		return nil, err
	}
	if old != nil {
		_ = old.c.abort()
	}
	w := newWorkerConn(id, c, joined)
	r.cur[id] = w
	r.readers.Add(1)
	select {
	case r.notify <- struct{}{}:
	default:
	}
	return w, nil
}

// readerExited is the reader goroutine's last act: it reports the
// disconnect and recycles the conn's decode scratch and free buffers, which
// only the reader decoded into.
func (r *memberRegistry) readerExited(w *workerConn) {
	r.disconnect(w)
	_ = w.c.close()
	w.release()
	r.readers.Done()
}

// disconnect marks w unable to submit. Only the current connection demotes
// the member — a replaced conn dying later must not disconnect its rejoin.
func (r *memberRegistry) disconnect(w *workerConn) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w.gone = true
	if r.cur[w.id] == w {
		r.tracker.Disconnect(w.id)
	}
}

// current returns id's newest connection, or nil.
func (r *memberRegistry) current(id int) *workerConn {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cur[id]
}

// isCurrent reports whether w is still its id's newest connection.
func (r *memberRegistry) isCurrent(w *workerConn) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cur[w.id] == w
}

// evict drops id's connection (if any) so the worker's next frame fails
// and it re-enters through the join path — the self-stabilizing nudge.
func (r *memberRegistry) evict(id int) {
	r.mu.Lock()
	w := r.cur[id]
	delete(r.cur, id)
	r.mu.Unlock()
	if w != nil {
		_ = w.c.abort()
	}
}

// all snapshots the current connections (sorted iteration not needed: the
// callers' sends are independent per conn).
func (r *memberRegistry) all() []*workerConn {
	r.mu.Lock()
	defer r.mu.Unlock()
	conns := make([]*workerConn, 0, len(r.cur))
	for _, w := range r.cur {
		conns = append(conns, w)
	}
	return conns
}

// close refuses further handshakes, aborts every connection to unblock its
// reader, and waits for the readers to exit.
func (r *memberRegistry) close() {
	r.mu.Lock()
	close(r.done)
	r.mu.Unlock()
	for _, w := range r.all() {
		_ = w.c.abort()
	}
	r.readers.Wait()
}
