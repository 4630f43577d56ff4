package experiments

import (
	"container/heap"
	"runtime"
	"sync"
)

// Pool is the bounded deterministic cell scheduler. runGrid drives it with
// one fixed batch per experiment grid; external work feeds submit items over
// time instead (the fleet control plane is that consumer).
//
// Up to width items execute concurrently on a fixed set of worker
// goroutines. Pending items start in (priority descending, submission order
// ascending) order: among the items waiting when a worker frees up, the
// highest-priority earliest-submitted one starts next. Every item must be
// self-contained — like a grid cell, it derives all of its randomness from
// its own inputs — so the pool inherits the scheduler determinism contract:
// item results are bit-identical at every width, and only completion order
// observes scheduling.
type Pool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  taskHeap
	seq    uint64
	closed bool
	wg     sync.WaitGroup
}

// Task is one submitted work item, usable to cancel it before it starts.
type Task struct {
	run      func()
	priority int
	seq      uint64
	index    int // heap index; -1 once popped or cancelled
}

// NewPool starts a pool of `width` workers (width <= 0 means GOMAXPROCS).
// Close it when done; an unclosed pool leaks its worker goroutines.
func NewPool(width int) *Pool {
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	p := &Pool{}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(width)
	for i := 0; i < width; i++ {
		go p.worker()
	}
	return p
}

// Submit enqueues run. Higher priorities start first; equal priorities start
// in submission order. The returned Task cancels the item while it is still
// queued; once a worker picked it up, cancellation is the caller's business
// (cancel the context the closure captured). Submitting to a closed pool
// returns nil and the item never runs.
func (p *Pool) Submit(priority int, run func()) *Task {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	t := &Task{run: run, priority: priority, seq: p.seq}
	p.seq++
	heap.Push(&p.queue, t)
	p.cond.Signal()
	return t
}

// Cancel dequeues the task if it has not started. It reports whether the
// item was removed before running; false means a worker already picked it up
// (or Cancel already succeeded once).
func (p *Pool) Cancel(t *Task) bool {
	if t == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if t.index < 0 {
		return false
	}
	heap.Remove(&p.queue, t.index)
	t.index = -1
	return true
}

// QueueDepth returns the number of submitted items not yet started.
func (p *Pool) QueueDepth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

// Close stops the pool: queued items are discarded (they never run) and the
// call blocks until every in-flight item returns. Callers that need a fast
// stop cancel the contexts their items captured before closing.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	for _, t := range p.queue {
		t.index = -1
	}
	p.queue = nil
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// worker loops: pop the best pending item, run it, repeat until Close.
func (p *Pool) worker() {
	defer p.wg.Done()
	p.mu.Lock()
	for {
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
		t := heap.Pop(&p.queue).(*Task)
		t.index = -1
		p.mu.Unlock()
		t.run()
		p.mu.Lock()
	}
}

// taskHeap orders tasks by (priority descending, submission seq ascending).
type taskHeap []*Task

func (h taskHeap) Len() int { return len(h) }

func (h taskHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority
	}
	return h[i].seq < h[j].seq
}

func (h taskHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *taskHeap) Push(x any) {
	t := x.(*Task)
	t.index = len(*h)
	*h = append(*h, t)
}

func (h *taskHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}
