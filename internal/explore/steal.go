// The work-stealing DFS frontier.
//
// Every worker owns a private LIFO deque of prefixes, pushes the
// children of the run it just completed, and pops the deepest child
// next, so consecutive runs on one worker share the longest possible
// common prefix (warm replay: the interpreter retraces a prefix it just
// executed). A worker whose deque drains steals from the *shallow* end
// of a peer's deque — the oldest entry, rooting the largest remaining
// subtree — which is the classic owner-LIFO/thief-FIFO split that keeps
// steal traffic rare and steals chunky. There is no barrier between
// generations of prefixes, so a skewed prefix tree, where one subtree
// keeps producing work long after its siblings drained, still keeps
// every worker busy.
//
// Budget accounting is per-run: a worker reserves a slot with one
// atomic increment before starting a run, so the run count can never
// overshoot Options.Schedules no matter how many workers race at the
// boundary. Which children a run spawns is decided by the DPOR body
// (dpor.go).
package explore

import (
	"sync"
	"sync/atomic"

	"parcoach/internal/interp"
	"parcoach/internal/pipeline"
	"parcoach/internal/sched"
)

// prefixDeque is one worker's frontier share. The owner pushes and pops
// at the top (LIFO, deepest prefix first); thieves take from the bottom
// (the shallowest prefix, i.e. the biggest stolen subtree). A plain
// mutex suffices: runs cost tens of microseconds, so deque operations
// are nowhere near contention.
type prefixDeque struct {
	mu    sync.Mutex
	items [][]sched.ThreadID
}

func (d *prefixDeque) push(p []sched.ThreadID) {
	d.mu.Lock()
	d.items = append(d.items, p)
	d.mu.Unlock()
}

// popTop removes the most recently pushed prefix (owner side).
func (d *prefixDeque) popTop() ([]sched.ThreadID, bool) {
	d.mu.Lock()
	n := len(d.items)
	if n == 0 {
		d.mu.Unlock()
		return nil, false
	}
	p := d.items[n-1]
	d.items[n-1] = nil
	d.items = d.items[:n-1]
	d.mu.Unlock()
	return p, true
}

// stealBottom removes the oldest prefix (thief side).
func (d *prefixDeque) stealBottom() ([]sched.ThreadID, bool) {
	d.mu.Lock()
	if len(d.items) == 0 {
		d.mu.Unlock()
		return nil, false
	}
	p := d.items[0]
	d.items[0] = nil
	d.items = d.items[1:]
	d.mu.Unlock()
	return p, true
}

// stealFrontier is the shared state of one DFS exploration.
type stealFrontier struct {
	sess *interp.Session
	opts Options
	sink *progressSink

	deques  []prefixDeque
	results [][]dfsRun // per-worker, merged after the drain

	// inflight counts prefixes that are enqueued or being processed;
	// the run that decrements it to zero ends the exploration.
	inflight int64
	// started reserves budget slots: the n-th reservation with
	// n > Schedules does not run (and marks the frontier leftover).
	started  int64
	leftover atomic.Bool
	diverged int64

	// ledger is the spawn ledger keyed by (decision-path hash,
	// candidate) — the global sleep set that keeps stolen subtrees
	// sound — and sleepSkips counts the backtrack candidates it
	// suppressed.
	ledger     *pipeline.ShardedSet
	sleepSkips int64

	// Idle workers park on wake (nudged by pushes) or done (closed when
	// inflight reaches zero or the budget is spent with work left).
	sleepers int32
	wake     chan struct{}
	done     chan struct{}
	endOnce  sync.Once
}

// newStealFrontier builds the shared frontier state with the root
// prefix seeded on worker 0's deque.
func newStealFrontier(sess *interp.Session, opts Options, pool *pipeline.Pool, sink *progressSink) *stealFrontier {
	width := pool.Workers()
	if width > opts.Schedules {
		width = opts.Schedules
	}
	if width < 1 {
		width = 1
	}
	f := &stealFrontier{
		sess:    sess,
		opts:    opts,
		sink:    sink,
		ledger:  pipeline.NewShardedSet(),
		deques:  make([]prefixDeque, width),
		results: make([][]dfsRun, width),
		wake:    make(chan struct{}, width),
		done:    make(chan struct{}),
	}
	// Seed the root (the unconstrained run) on worker 0's deque.
	f.inflight = 1
	f.deques[0].items = append(f.deques[0].items, nil)
	return f
}

// drain runs the workers and collects the completed runs.
func (f *stealFrontier) drain(pool *pipeline.Pool) (runs []dfsRun, leftover bool, diverged int) {
	// The pool recruits up to width-1 helpers and the caller works too;
	// if the pool is busy elsewhere, fewer helpers join and the idle
	// deques are simply stolen empty.
	pool.Map(len(f.deques), f.worker)

	for _, rs := range f.results {
		runs = append(runs, rs...)
	}
	return runs, f.leftover.Load(), int(atomic.LoadInt64(&f.diverged))
}

// worker drains prefixes until the tree is explored or the budget is
// spent.
func (f *stealFrontier) worker(w int) {
	for {
		prefix, ok := f.next(w)
		if !ok {
			return
		}
		f.process(w, prefix)
		if atomic.AddInt64(&f.inflight, -1) == 0 {
			f.end()
			return
		}
	}
}

// end wakes every parked worker and terminates the drain.
func (f *stealFrontier) end() {
	f.endOnce.Do(func() { close(f.done) })
}

// scan tries the worker's own deque top, then every peer's bottom.
func (f *stealFrontier) scan(w int) ([]sched.ThreadID, bool) {
	if p, ok := f.deques[w].popTop(); ok {
		return p, true
	}
	for i := 1; i < len(f.deques); i++ {
		if p, ok := f.deques[(w+i)%len(f.deques)].stealBottom(); ok {
			return p, true
		}
	}
	return nil, false
}

// next returns the worker's next prefix, parking when the frontier is
// momentarily empty but peers still hold in-flight work.
func (f *stealFrontier) next(w int) ([]sched.ThreadID, bool) {
	for {
		if p, ok := f.scan(w); ok {
			return p, true
		}
		if atomic.LoadInt64(&f.inflight) == 0 {
			return nil, false
		}
		select {
		case <-f.done:
			return nil, false
		default:
		}
		// Register as a sleeper, then re-scan once: a push between the
		// failed scan and the registration would otherwise be missed.
		atomic.AddInt32(&f.sleepers, 1)
		if p, ok := f.scan(w); ok {
			atomic.AddInt32(&f.sleepers, -1)
			return p, true
		}
		select {
		case <-f.wake:
		case <-f.done:
		}
		atomic.AddInt32(&f.sleepers, -1)
	}
}

// process reserves budget and hands the prefix to the DPOR body.
func (f *stealFrontier) process(w int, prefix []sched.ThreadID) {
	if ctxErr(f.opts.Ctx) != nil {
		// Canceled: abandon this prefix (and, via end, the whole frontier)
		// without consuming budget. Workers mid-run are aborted by their
		// own RunCtx guard; this check is what stops the queued tail.
		f.leftover.Store(true)
		f.end()
		return
	}
	if atomic.AddInt64(&f.started, 1) > int64(f.opts.Schedules) {
		// Budget spent with this prefix (at least) unexplored: the
		// enumeration is not exhaustive. Ending here is what bounds the
		// run count; the reservation is the budget check.
		f.leftover.Store(true)
		f.end()
		return
	}
	f.execDPOR(w, prefix)
}

// pushChild enqueues one child prefix on the worker's own deque and
// nudges a parked peer.
func (f *stealFrontier) pushChild(w int, child []sched.ThreadID) {
	atomic.AddInt64(&f.inflight, 1)
	f.deques[w].push(child)
	if atomic.LoadInt32(&f.sleepers) > 0 {
		select {
		case f.wake <- struct{}{}:
		default:
		}
	}
}
