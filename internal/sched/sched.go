// Package sched runs the interpreter's (internal/interp) simulated
// threads as a serialized schedule and is the blocking kernel the
// simulated MPI and OpenMP runtimes share: exactly one simulated thread
// runs at a time, and a pluggable Scheduler decides, at every statement
// boundary and every blocking transition, which enabled thread runs
// next. Every run is serialized; a run given no scheduler uses the
// default one, a quantum round-robin.
//
// The Controller is a run's one thread table. Go registers each thread
// and binds it to a pooled coroutine, and Drive, on the goroutine that
// runs the world, resumes whichever thread the scheduler picked. A
// thread hands the run token on by suspending back to the driver, so a
// switch costs two coroutine switches on one OS thread, and no two
// threads ever run at once. A thread exits by returning: the driver sees
// its coroutine finish, retires it and picks the next holder. A panic
// never escapes a run: one raised on a thread (caught by its coroutine)
// or on the driver (a scheduler's pick, a deadlock report's analyzers)
// aborts the run with a QuarantineError at sched.thread or sched.drive,
// and the driver still unwinds every remaining thread, so Drive returns
// only once every thread has returned.
//
// Every blocking operation of the simulated runtimes (collective round,
// message rendezvous, team barrier, critical section, CC agreement) is
// one Wait call, which parks the running thread's gate until a waker
// that kept the gate calls Wake. The three rendezvous of n participants
// (an MPI collective round, a CC agreement, a team barrier) share one
// Round: every arrival but the last waits, and the last completes the
// round and wakes the rest. Between those transitions the
// interpreter calls Gate.Yield at each statement, giving the Scheduler
// statement-level interleaving control. Because every wait parks here,
// the driver finds a deadlock the instant it happens — threads remain,
// yet none can run — and aborts the run with a report of what every
// parked thread waits for, exact and with no timeout. That report is
// the oracle the validator (internal/verifier) must preempt, in place of
// a job that hangs on the cluster until the batch limit. Because only
// the token holder ever touches simulation state, a run is a
// deterministic function of the scheduler's decisions — which is what
// makes recorded schedules replayable and exhaustive enumeration
// (internal/explore) possible. One scheduler, the Recorder, follows
// every recorded schedule: a replay token's trace, a DFS frontier
// prefix and a campaign splice.
//
// For the same reason a run takes no lock: only the running thread or
// the driver touches run state, one at a time. The one caller from
// outside the run is Interrupt (a canceled context or a watchdog), and
// three invariants order it against the run instead of a lock:
//
//  1. The abort cause is the only field written from outside the run:
//     one atomic pointer, set by the first abort. Interrupt writes
//     nothing else.
//  2. Publishing the cause releases the run: every later scheduling call
//     returns at once, and the driver resumes each remaining thread until
//     it has returned, so a thread the release lets run always reads the
//     cause.
//  3. A wait ends either by a wake, and Wait returns nil, or by the
//     abort, and Wait returns the cause. A wake after the abort does
//     nothing, and a wait made after the abort never parks.
package sched

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"parcoach/internal/monitor"
)

// ThreadID identifies one simulated thread, assigned in creation order:
// the MPI process mains get 0..procs-1, forked team workers get ids in
// fork order. Under serialization creation order is deterministic, so
// ids are stable across runs of the same schedule.
type ThreadID int

// Choice is one scheduling decision: the sorted set of runnable threads
// and the context the scheduler may use to pick among them.
type Choice struct {
	// Enabled is the sorted, non-empty set of runnable threads. It is
	// the controller's own ready set, only valid for the duration of the
	// Next call; schedulers must not modify it, and those that retain it
	// must copy, as the Recorder does.
	Enabled []ThreadID
	// Cur is the thread that just yielded, or -1 when the previous
	// holder parked or exited (it is then absent from Enabled).
	Cur ThreadID
	// Seq counts decisions since the run started.
	Seq int64

	ctl *Controller
}

// Sig returns the positional state signature: a hash over every
// thread's (id, liveness, last source line, executed-statement count).
// Two interleavings that drove all threads to the same positions
// collide, which is what makes it a coverage key for exploration
// campaigns. Only branch points (more than one enabled thread) carry a
// signature; singleton decisions return 0. The controller folds the
// threads that moved into the hash only when a scheduler asks, so the
// schedulers that never call Sig never pay for it. Like Enabled, it is
// only valid during the Next call.
func (c Choice) Sig() uint64 {
	if c.ctl == nil || len(c.Enabled) < 2 {
		return 0
	}
	return c.ctl.sig()
}

// Scheduler picks the next thread to run. Implementations must be
// deterministic functions of their own state and the Choice sequence —
// that is the whole replayability contract.
type Scheduler interface {
	Next(c Choice) ThreadID
}

// TraceSource is implemented by schedulers that may want the controller
// to record the run's event trace: one monitor.Event per scheduling
// decision, tagged with the object accesses the chosen thread performed
// until the next decision. Reset detects it and turns on per-gate access
// buffering when EventTrace returns a trace; a Recorder without Events
// returns nil and runs untraced.
type TraceSource interface {
	Scheduler
	EventTrace() *monitor.EventTrace
}

//
// Controller: the serialization token machine and blocking kernel.
//

type gateState int

const (
	gateReady  gateState = iota // runnable, waiting for (or holding) the token
	gateParked                  // blocked in Wait
	gateDone                    // thread exited
)

// Gate is the controller-side handle of one simulated thread. The
// interpreter threads carry their gate and call Yield on every
// statement, and a waker keeps the gate of each thread it must Wake.
type Gate struct {
	ctl *Controller
	id  ThreadID
	// co is the coroutine running the gate's thread: bound by Go,
	// cleared by the driver when the thread returns.
	co *coro
	// reason and detail describe the wait the gate is parked in. detail
	// is only called when a deadlock report is built, on the driver while
	// the run is frozen, so the hot path never pays the formatting.
	reason string
	detail func() string

	state gateState
	line  int   // last yielded source line
	steps int64 // statements executed
	// sig caches this gate's contribution to the controller's
	// incremental positional-state signature; dirty marks it stale
	// (fields above changed since it was computed).
	sig   uint64
	dirty bool

	// acc buffers the object accesses of the current event. Only the
	// owning thread appends, and every flush into the controller's trace
	// happens on the holder's thread or on the driver (an abort from
	// outside the run flushes nothing). Accesses made after an abort are
	// dropped when the gate is recycled.
	acc []monitor.Access
}

// ID returns the thread id.
func (g *Gate) ID() ThreadID { return g.id }

// Access tags the current event with one object access. Call only from
// the gate's own thread (the token holder).
func (g *Gate) Access(o monitor.Obj, kind monitor.AccessKind) {
	g.acc = append(g.acc, monitor.Access{Obj: o, Kind: kind})
}

// Controller serializes one run and is its blocking kernel. Only the
// running thread and the driver touch its state, one at a time; the one
// exception is the abort cause, which Interrupt publishes from outside
// the run. A controller serves run after run: Reset rearms it.
type Controller struct {
	sched Scheduler
	// cause is the run's abort error, nil while the run is healthy.
	cause atomic.Pointer[error]
	// analyzers contribute context lines to the deadlock report; they
	// stay registered across Reset.
	analyzers []func() []string
	// gates holds the gates of the threads that have not returned, in id
	// order; a thread's gate leaves it when the thread returns.
	gates  []*Gate
	holder *Gate // token holder, nil when none
	nextID ThreadID
	seq    int64
	// live counts the threads started with Go whose functions have not
	// returned.
	live int

	// running is the gate whose thread the driver is running (see
	// Running).
	running *Gate

	// dflt is the default scheduler a nil Scheduler stands for, kept
	// here so a default run allocates none.
	dflt quantumRR

	// ready is the sorted id set of runnable gates, maintained
	// incrementally on every state transition. Decisions are then
	// O(enabled) instead of O(every gate ever forked) — a run that
	// keeps entering parallel regions forks a fresh team each time, and
	// scanning the accumulated dead gates once per statement turns such
	// runs quadratic (the step-limit abort of a reduced looping program
	// would take hours instead of seconds).
	ready []ThreadID
	// readyGates holds the gates of ready, in the same order.
	readyGates []*Gate

	// Incremental positional-state signature: xsig is the XOR of every
	// gate's cached per-gate FNV contribution. Gates whose position
	// changed since their contribution was computed sit on the dirty
	// list; sig folds them in lazily, so long single-threaded stretches
	// (one dirty gate, many statements) never pay a whole-gate-set
	// rehash and nothing on the per-statement path allocates.
	xsig  uint64
	dirty []*Gate

	// trace, when non-nil, is the run's event trace (the scheduler
	// implements TraceSource): choose closes the previous event by
	// flushing the holder's access buffer and opens one for its pick.
	// branchN counts multi-enabled decisions, aligning Event.Branch with
	// the Recorder's branch-point indices.
	trace   *monitor.EventTrace
	branchN int

	// freeGates recycles the gates of returned threads, within a run and
	// across the runs of one controller, so a run holds gates for its
	// live threads only.
	freeGates []*Gate
}

// NewController returns a controller driven by s; a nil s means the
// default scheduler, a quantum round-robin that keeps the running thread
// for up to 64 consecutive decisions before rotating like RoundRobin.
// Threads join the run through Go.
func NewController(s Scheduler) *Controller {
	c := new(Controller)
	c.Reset(s)
	return c
}

// Reset rearms the controller for a fresh run driven by s (nil for the
// default scheduler), keeping its gates warm and its analyzers
// registered. Only call once the previous run's Drive has returned —
// every thread has then returned and its gate is on the free list — and
// nothing outside the run can still Interrupt it.
func (c *Controller) Reset(s Scheduler) {
	if s == nil {
		c.dflt = quantumRR{rr: RoundRobin{last: -1}}
		s = &c.dflt
	}
	c.sched = s
	c.cause.Store(nil)
	c.holder = nil
	c.nextID = 0
	c.seq = 0
	c.live = 0
	c.xsig = 0
	c.dirty = c.dirty[:0]
	c.ready = c.ready[:0]
	clear(c.readyGates)
	c.readyGates = c.readyGates[:0]
	c.trace = nil
	c.branchN = 0
	if ts, ok := s.(TraceSource); ok {
		c.trace = ts.EventTrace()
	}
}

// AddAnalyzer registers a callback that contributes context lines to
// the deadlock report (e.g. the MPI matcher describing which ranks
// already finalized). Call it between runs; it stays registered across
// Reset.
func (c *Controller) AddAnalyzer(f func() []string) { c.analyzers = append(c.analyzers, f) }

func (c *Controller) newGate() *Gate {
	var g *Gate
	if n := len(c.freeGates); n > 0 {
		g = c.freeGates[n-1]
		c.freeGates = c.freeGates[:n-1]
	} else {
		g = new(Gate)
	}
	g.ctl = c
	g.co = nil
	g.id = c.nextID
	c.nextID++
	g.state = gateReady
	g.line = 0
	g.steps = 0
	g.dirty = false
	g.acc = g.acc[:0]
	g.sig = g.contribution()
	c.xsig ^= g.sig
	c.gates = append(c.gates, g)
	c.readyAdd(g)
	return g
}

// readyAdd inserts g into the sorted ready set. Freshly forked gates
// carry the highest id so far, so forks take the append fast path; only
// wakes of low-id threads pay the insertion walk.
func (c *Controller) readyAdd(g *Gate) {
	n := len(c.ready)
	if n == 0 || c.ready[n-1] < g.id {
		c.ready = append(c.ready, g.id)
		c.readyGates = append(c.readyGates, g)
		return
	}
	i := sort.Search(n, func(k int) bool { return c.ready[k] >= g.id })
	if i < n && c.ready[i] == g.id {
		return
	}
	c.ready = append(c.ready, 0)
	copy(c.ready[i+1:], c.ready[i:])
	c.ready[i] = g.id
	c.readyGates = append(c.readyGates, nil)
	copy(c.readyGates[i+1:], c.readyGates[i:])
	c.readyGates[i] = g
}

// readyRemove deletes g from the sorted ready set.
func (c *Controller) readyRemove(g *Gate) {
	i := sort.Search(len(c.ready), func(k int) bool { return c.ready[k] >= g.id })
	if i < len(c.ready) && c.ready[i] == g.id {
		c.ready = append(c.ready[:i], c.ready[i+1:]...)
		c.readyGates = append(c.readyGates[:i], c.readyGates[i+1:]...)
	}
}

// Go registers fn as a new thread of the run: it gets the next thread
// id and an enabled gate, and its coroutine starts the first time the
// driver resumes the gate. The thread is live until fn returns. The
// caller — the token holder, or the goroutine about to Drive — keeps
// the token, so ids follow the order of Go calls.
func (c *Controller) Go(fn func()) {
	c.newGate().co = getCoro(fn)
	c.live++
}

// Live returns the number of threads started with Go that have not
// returned.
func (c *Controller) Live() int { return c.live }

// Running returns the gate of the running thread: the one the driver
// resumed. A thread started with Go calls it to find its own gate, and
// a thread about to Wait hands it to whoever will Wake it.
func (c *Controller) Running() *Gate { return c.running }

// Yield offers a context switch at a statement boundary on the given
// source line. The calling thread must hold the token (it is the only
// one running). If the scheduler picks another thread, the caller
// suspends to the driver until the driver resumes it. Once the run has
// aborted, Yield takes no decision and returns the cause; it also
// returns the cause when the abort came while the thread was suspended.
func (g *Gate) Yield(line int) error {
	c := g.ctl
	if p := c.cause.Load(); p != nil {
		return *p
	}
	g.line = line
	g.steps++
	c.markDirty(g)
	if c.choose(g.id) != g.id {
		g.co.suspend()
		return c.Err()
	}
	return nil
}

// Wait parks the running thread, which must hold the token, until Wake
// of its gate (see Running) or the abort of the run: it returns nil for
// a wake and the cause for an abort. The scheduler picks the next holder
// and the thread suspends until the driver resumes it, which happens
// only once the wake or the abort has happened. reason names the class
// of the wait ("MPI collective", "team barrier", ...) and detail
// describes it; detail is only called if the wait ends up in a deadlock
// report. A wait made after the abort never parks.
func (c *Controller) Wait(reason string, detail func() string) error {
	if p := c.cause.Load(); p != nil {
		return *p
	}
	g := c.holder
	g.state = gateParked
	g.reason, g.detail = reason, detail
	c.readyRemove(g)
	c.markDirty(g)
	c.choose(-1)
	g.co.suspend()
	g.detail = nil
	if g.state == gateParked {
		// Not woken, so the abort ended the wait: its cause was
		// published before the driver let this thread run.
		return c.Err()
	}
	return nil
}

// Wake makes the thread parked on g runnable again. Wakes are precise:
// the waker has already established the condition the thread waits for,
// and keeps the token; the woken thread runs on once the scheduler picks
// it. A second wake of one wait does nothing, and so does a wake after
// the abort: that wait ends with the cause.
func (c *Controller) Wake(g *Gate) {
	if g.state != gateParked || c.Aborted() {
		return
	}
	g.state = gateReady
	c.readyAdd(g)
	c.markDirty(g)
}

// Abort fails the run: the first cause wins, running threads stop at
// their next Yield or Wait, and the driver resumes every remaining
// thread so each parked wait ends with the cause. Only the run's own
// threads and its driver call it; callers outside the run use
// Interrupt.
func (c *Controller) Abort(err error) {
	if c.cause.CompareAndSwap(nil, &err) && c.trace != nil {
		// The aborting thread is the holder (only the token holder runs),
		// or the driver runs while no thread does, so the holder's final
		// accesses — e.g. the MPI call that completed a deadlock — flush
		// safely here.
		c.flushEvent()
	}
}

// Interrupt is Abort for callers outside the run's threads (cancellation
// and watchdogs): the token holder may still be mid-step, so it only
// publishes the cause, and the run's threads notice at their next
// check. The still-running holder's partial event is dropped with the
// accesses made after the abort.
func (c *Controller) Interrupt(err error) { c.cause.CompareAndSwap(nil, &err) }

// Aborted reports whether the run failed: one atomic load.
func (c *Controller) Aborted() bool { return c.cause.Load() != nil }

// Err returns the abort cause, if any.
func (c *Controller) Err() error {
	if p := c.cause.Load(); p != nil {
		return *p
	}
	return nil
}

// Drive runs the run on the calling goroutine until every thread
// started with Go has returned: it makes the run's first scheduling
// decision, then resumes the token holder each time the running thread
// suspends. When a thread returns, the driver retires it and the
// scheduler picks the next holder. Once the run has aborted it resumes
// the remaining threads, lowest id first, until each has returned. A
// thread that panics aborts the run with a QuarantineError carrying the
// panic value and the thread's stack, and counts as returned.
//
// A run not aborted that has no holder while threads remain is
// deadlocked: every remaining thread is parked and none can wake
// another. Drive aborts it with a DeadlockError listing every parked
// wait and every analyzer's context, and the threads unwind like any
// aborted run's.
//
// A panic on the driver itself — the scheduler's pick at the first
// decision or after a thread returns, or the deadlock report's
// analyzers and detail closures — is quarantined like a thread's: Drive
// aborts the run with a QuarantineError at sched.drive and unwinds every
// remaining thread, so it never panics and never leaves a thread
// suspended.
func (c *Controller) Drive() {
	first := !c.Aborted()
	for !c.drive(first) {
		first = false
	}
	// The run is over: a controller waiting in a pool for its next
	// Reset holds neither the scheduler nor its trace.
	c.sched, c.trace = nil, nil
}

// drive is one pass of the driver loop: it makes the first decision if
// first is set, then resumes threads until every one has returned, and
// reports true. A panic ends the pass instead: the run aborts with it
// and drive reports false, so the next pass, in abort mode, unwinds the
// remaining threads. One deferred recover per pass, not per switch.
func (c *Controller) drive(first bool) (done bool) {
	defer func() {
		if v := recover(); v != nil {
			c.Abort(&monitor.QuarantineError{Op: "sched.drive", Value: v, Stack: debug.Stack()})
		}
	}()
	if first {
		c.choose(-1)
	}
	for {
		g := c.resumable()
		if g == nil {
			return true
		}
		co := g.co
		c.running = g
		co.resume()
		c.running = nil
		if co.done {
			c.retire(g)
		}
	}
}

// resumable returns the gate whose thread the driver resumes next: the
// token holder, or once the run has aborted the lowest-id thread that
// has not returned. nil means every thread has returned.
func (c *Controller) resumable() *Gate {
	if c.live == 0 {
		return nil
	}
	if !c.Aborted() {
		if c.holder != nil {
			return c.holder
		}
		c.deadlocked()
	}
	// Every gate left belongs to a thread that has not returned.
	if len(c.gates) == 0 {
		return nil
	}
	return c.gates[0]
}

// deadlocked aborts the run with the deadlock report: nothing can ever
// wake the remaining threads. The report lists every parked wait,
// sorted, then every analyzer's lines.
func (c *Controller) deadlocked() {
	var lines []string
	for _, g := range c.gates {
		if g.state == gateParked {
			lines = append(lines, fmt.Sprintf("  %s: %s", g.reason, g.detail()))
		}
	}
	sort.Strings(lines)
	for _, f := range c.analyzers {
		for _, l := range f() {
			lines = append(lines, "  "+l)
		}
	}
	c.Abort(&monitor.DeadlockError{Details: lines})
}

// retire ends a returned thread: its coroutine goes back to the pool,
// its gate is done, the scheduler picks the next holder, and the gate
// goes to the free list. A thread that panicked aborts the run instead,
// so no scheduling decision follows the panic.
func (c *Controller) retire(g *Gate) {
	co := g.co
	g.co = nil
	c.live--
	defer c.free(g)
	if co.panicked != nil {
		c.Abort(&monitor.QuarantineError{Op: "sched.thread", Value: co.panicked, Stack: co.stack})
	}
	co.put()
	if c.Aborted() {
		return
	}
	g.state = gateDone
	c.readyRemove(g)
	c.markDirty(g)
	c.choose(-1)
}

// free takes a returned thread's gate out of the run. Its final
// position stays in the signature: the contribution is folded into xsig
// now and the gate leaves the dirty list, so Choice.Sig reads as if the
// gate were still there.
func (c *Controller) free(g *Gate) {
	if g.dirty {
		c.xsig ^= g.sig
		g.sig = g.contribution()
		c.xsig ^= g.sig
		g.dirty = false
		for i, d := range c.dirty {
			if d == g {
				last := len(c.dirty) - 1
				c.dirty[i] = c.dirty[last]
				c.dirty = c.dirty[:last]
				break
			}
		}
	}
	i := sort.Search(len(c.gates), func(k int) bool { return c.gates[k].id >= g.id })
	c.gates = append(c.gates[:i], c.gates[i+1:]...)
	c.freeGates = append(c.freeGates, g)
}

// contribution hashes the gate's position — (id, liveness, last line,
// executed-statement count) — with FNV-1a over a fixed stack buffer: no
// hasher object, no fmt, no string building. The id inside the hash
// keeps XOR combination safe against two gates swapping positions.
func (g *Gate) contribution() uint64 {
	var buf [32]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(g.id))
	binary.LittleEndian.PutUint64(buf[8:], uint64(g.state))
	binary.LittleEndian.PutUint64(buf[16:], uint64(int64(g.line)))
	binary.LittleEndian.PutUint64(buf[24:], uint64(g.steps))
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, b := range buf {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// markDirty queues the gate for a lazy signature update.
func (c *Controller) markDirty(g *Gate) {
	if !g.dirty {
		g.dirty = true
		c.dirty = append(c.dirty, g)
	}
}

// sig returns the incremental positional signature, folding in the
// gates whose position changed since it was last computed.
func (c *Controller) sig() uint64 {
	if len(c.dirty) > 0 {
		for _, g := range c.dirty {
			c.xsig ^= g.sig
			g.sig = g.contribution()
			c.xsig ^= g.sig
			g.dirty = false
		}
		c.dirty = c.dirty[:0]
	}
	return c.xsig
}

// flushEvent closes the current event: the holder's buffered accesses
// are appended to the trace. Every call site runs on the holder's
// thread or on the driver, so reading g.acc here never races the
// owner-side appends.
func (c *Controller) flushEvent() {
	g := c.holder
	if g == nil {
		return
	}
	if len(g.acc) > 0 {
		c.trace.Append(g.acc)
		g.acc = g.acc[:0]
	}
}

// choose asks the scheduler to pick among the enabled threads (which
// must include cur when cur yielded rather than parked). Invalid picks
// fall back to the lowest enabled id so a buggy scheduler cannot wedge
// the run.
func (c *Controller) choose(cur ThreadID) ThreadID {
	if c.trace != nil {
		c.flushEvent()
	}
	enabled := c.ready
	if len(enabled) == 0 {
		c.holder = nil
		return -1
	}
	ch := Choice{Enabled: enabled, Cur: cur, Seq: c.seq, ctl: c}
	branch := -1
	if len(enabled) > 1 {
		branch = c.branchN
		c.branchN++
	}
	c.seq++
	id := c.sched.Next(ch)
	k := 0 // invalid picks fall back to the lowest enabled id
	for i, e := range enabled {
		if e == id {
			k = i
			break
		}
	}
	id = enabled[k]
	c.holder = c.readyGates[k]
	if c.trace != nil {
		c.trace.Open(int(id), branch)
	}
	return id
}

//
// Scheduler implementations.
//

// RoundRobin rotates the token through the enabled threads in id order —
// the serialized analogue of the interpreter's historical deterministic
// schedule, and the reference the conformance suite pins against the
// golden files.
type RoundRobin struct {
	last ThreadID
}

// NewRoundRobin returns a fresh round-robin scheduler.
func NewRoundRobin() *RoundRobin { return &RoundRobin{last: -1} }

// Next picks the smallest enabled id strictly greater than the previous
// pick, wrapping around.
func (s *RoundRobin) Next(c Choice) ThreadID {
	pick := c.Enabled[0]
	for _, id := range c.Enabled {
		if id > s.last {
			pick = id
			break
		}
	}
	s.last = pick
	return pick
}

// quantum is how many consecutive decisions the default scheduler keeps
// the running thread for.
const quantum = 64

// quantumRR is the default scheduler, the one a nil Scheduler stands
// for: it keeps the running thread for up to quantum consecutive
// decisions while that thread stays enabled, then rotates exactly as
// RoundRobin does. Keeping the thread spares most statements a switch;
// the quantum bounds how long a spinning thread can starve the others.
type quantumRR struct {
	rr   RoundRobin
	kept int
}

// Next keeps the thread that just yielded until its quantum is spent,
// and otherwise rotates.
func (s *quantumRR) Next(c Choice) ThreadID {
	if c.Cur >= 0 && s.kept < quantum {
		s.kept++
		return c.Cur
	}
	s.kept = 0
	return s.rr.Next(c)
}

// Random picks uniformly among the enabled threads with a seeded PRNG;
// the same seed reproduces the same schedule.
type Random struct {
	rng *rand.Rand
}

// NewRandom returns a seeded random scheduler.
func NewRandom(seed int64) *Random { return &Random{rng: rand.New(rand.NewSource(seed))} }

// Next picks uniformly among the enabled threads.
func (s *Random) Next(c Choice) ThreadID {
	return c.Enabled[s.rng.Intn(len(c.Enabled))]
}

// PCT is a probabilistic-concurrency-testing scheduler (Burckhardt et
// al.): every thread gets a random priority on first sight, the highest
// priority enabled thread runs, and at depth-1 randomly chosen decision
// points the running thread's priority drops below everyone else's. With
// depth d it finds any bug of preemption depth d with probability ≥
// 1/(n·k^(d-1)).
type PCT struct {
	rng     *rand.Rand
	depth   int
	horizon int64

	prio    map[ThreadID]int
	nextLow int
	changes map[int64]bool
}

// NewPCT returns a PCT scheduler with the given seed, priority-change
// depth (minimum 1) and decision horizon (the k in the probability
// bound; decision points beyond it never host a priority change).
func NewPCT(seed int64, depth int, horizon int64) *PCT {
	if depth < 1 {
		depth = 1
	}
	if horizon < 1 {
		horizon = 4096
	}
	rng := rand.New(rand.NewSource(seed))
	changes := make(map[int64]bool)
	for i := 0; i < depth-1; i++ {
		changes[rng.Int63n(horizon)] = true
	}
	return &PCT{rng: rng, depth: depth, horizon: horizon, prio: make(map[ThreadID]int), changes: changes}
}

// Next runs the highest-priority enabled thread, demoting the current
// one at the sampled change points.
func (s *PCT) Next(c Choice) ThreadID {
	for _, id := range c.Enabled {
		if _, ok := s.prio[id]; !ok {
			// Fresh threads draw a priority above all previous ones so
			// newly forked workers preempt (runs are short; the classic
			// formulation is equivalent up to the initial permutation).
			s.prio[id] = len(s.prio)*2 + s.rng.Intn(2)
		}
	}
	if s.changes[c.Seq] && c.Cur >= 0 {
		s.nextLow--
		s.prio[c.Cur] = s.nextLow
	}
	best := c.Enabled[0]
	for _, id := range c.Enabled[1:] {
		if s.prio[id] > s.prio[best] {
			best = id
		}
	}
	return best
}

// Branch is one observed decision point where the schedule genuinely
// branched (more than one thread enabled).
type Branch struct {
	// Enabled is the sorted runnable set.
	Enabled []ThreadID
	// Chosen is the thread the recorder picked.
	Chosen ThreadID
}

// Recorder is the one scheduler that follows a recorded schedule: a
// parsed "trace:" token, a DFS frontier prefix or a campaign splice. At
// every branch point (more than one thread enabled) it takes the next
// Prefix entry; a recorded pick that is not enabled is a divergence and
// falls back to the lowest enabled id. Singleton decisions consume
// nothing. Past the prefix, Tail picks, and a nil Tail takes the lowest
// enabled id. A run is a deterministic function of its branch
// decisions, so following a trace reproduces the run exactly.
type Recorder struct {
	Prefix []ThreadID
	// Tail picks at the branch points past the prefix, and only there;
	// nil takes the lowest enabled id.
	Tail Scheduler
	// Keep is how many branch points Branches records; the rest are
	// followed but not kept. The zero value records none, and a token
	// replay must stay that way: a replayed run that spins past its
	// trace to the step budget, as some of a campaign's reduction
	// candidates do, passes millions of branch points. A trial that kept
	// every branch point of "trace:" replays raised the campaign
	// workload's peak RSS from 16.1 to 591 MB and its p50 from 140 to
	// 202 ms.
	Keep int
	// Events, when set, is where the controller records the run's event
	// trace (see TraceSource): one monitor.Event per scheduling decision,
	// tagged with the object accesses of the chosen thread's step. nil
	// runs untraced.
	Events *monitor.EventTrace

	// Branches holds the first Keep branch points of the run.
	Branches []Branch
	n        int // branch points passed
	diverged bool
	// enabledBuf backs the Branch.Enabled copies: one growing buffer
	// per run instead of one allocation per branch point. Earlier
	// branches keep pointing into superseded backing arrays after a
	// growth — they are never written again, so the aliasing is safe.
	enabledBuf []ThreadID
}

// Reset rearms the recorder and its event trace for a new run following
// prefix, keeping its buffers so one recorder serves run after run
// without reallocating.
func (s *Recorder) Reset(prefix []ThreadID) {
	s.Prefix = prefix
	s.Branches = s.Branches[:0]
	s.enabledBuf = s.enabledBuf[:0]
	s.n = 0
	s.diverged = false
	if s.Events != nil {
		s.Events.Reset()
	}
}

// Next follows the prefix at branch points, then the tail, and records
// the first Keep branch points.
func (s *Recorder) Next(c Choice) ThreadID {
	if len(c.Enabled) == 1 {
		return c.Enabled[0]
	}
	pos := s.n
	s.n++
	pick := c.Enabled[0]
	switch {
	case pos < len(s.Prefix):
		var ok bool
		if pick, ok = follow(c.Enabled, s.Prefix[pos]); !ok {
			s.diverged = true
		}
	case s.Tail != nil:
		pick = s.Tail.Next(c)
	}
	if pos < s.Keep {
		off := len(s.enabledBuf)
		s.enabledBuf = append(s.enabledBuf, c.Enabled...)
		s.Branches = append(s.Branches, Branch{
			Enabled: s.enabledBuf[off:len(s.enabledBuf):len(s.enabledBuf)],
			Chosen:  pick,
		})
	}
	return pick
}

// follow takes the recorded pick rec if rec is enabled, and otherwise
// reports the divergence and falls back to the lowest enabled id.
func follow(enabled []ThreadID, rec ThreadID) (pick ThreadID, ok bool) {
	for _, id := range enabled {
		if id == rec {
			return rec, true
		}
	}
	return enabled[0], false
}

// Diverged reports whether the run failed to follow the prefix: either
// the prefix named a thread that was not enabled at some branch point,
// or (checked after the run) the run passed fewer branch points than the
// prefix holds. Both mean the program or its configuration differ from
// the recording.
func (s *Recorder) Diverged() bool { return s.diverged || s.n < len(s.Prefix) }

// Trace returns the chosen thread at every recorded branch point — the
// replay token payload of this run.
func (s *Recorder) Trace() []ThreadID {
	out := make([]ThreadID, len(s.Branches))
	for i, b := range s.Branches {
		out[i] = b.Chosen
	}
	return out
}

// EventTrace implements TraceSource: it returns Events, so a recorder
// without one runs untraced.
func (s *Recorder) EventTrace() *monitor.EventTrace { return s.Events }

// Candidates answers the DPOR backtracking question for one race pair
// of the run's event trace (Events): which threads must be tried
// instead of the chosen one at the decision that started race event A,
// so that the reversal (B's side first) is reached. It combines the
// decision's enabled set with the per-thread next-access summaries the
// trace provides (each enabled thread's first recorded event after A)
// following the classic dynamic partial-order reduction rule:
//
//   - if B's thread p was enabled at the decision, {p} suffices;
//   - otherwise any enabled thread whose next step is in the causal past
//     of B reaches the reversal (one suffices; if the chosen thread
//     itself qualifies, the requirement is already met and nothing new
//     is needed);
//   - if no summary qualifies, every enabled alternate must be tried.
//
// The result appends into buf (reused by callers); an empty result means
// the decision already satisfies the race's backtracking requirement. A
// race whose decision was forced (Branch < 0) or not kept has no
// alternatives and always returns empty.
func (s *Recorder) Candidates(an *monitor.Analysis, rc monitor.Race, buf []ThreadID) []ThreadID {
	out := buf[:0]
	_, d := s.Events.At(rc.A)
	if d < 0 || d >= len(s.Branches) {
		return out
	}
	br := &s.Branches[d]
	bt, _ := s.Events.At(rc.B)
	p := ThreadID(bt)
	for _, q := range br.Enabled {
		if q == p {
			if p == br.Chosen {
				return out
			}
			return append(out, p)
		}
	}
	// p was not enabled (blocked, or not yet forked). Check the chosen
	// thread's summary first: if its next step is already in B's causal
	// past, the explored branch covers the requirement.
	if k := an.NextEventOf(int(br.Chosen), rc.A); k >= 0 && k <= rc.B && an.HappensBefore(k, rc.B, s.Events) {
		return out
	}
	for _, q := range br.Enabled {
		if q == br.Chosen {
			continue
		}
		if k := an.NextEventOf(int(q), rc.A); k >= 0 && k <= rc.B && an.HappensBefore(k, rc.B, s.Events) {
			return append(out, q) // one element of the set suffices
		}
	}
	for _, q := range br.Enabled {
		if q != br.Chosen {
			out = append(out, q)
		}
	}
	return out
}

//
// Replay tokens: the printable, replayable name of a schedule.
//

// FormatTrace renders a branch trace as a replay token ("trace:0.2.1").
func FormatTrace(trace []ThreadID) string {
	parts := make([]string, len(trace))
	for i, id := range trace {
		parts[i] = strconv.Itoa(int(id))
	}
	return "trace:" + strings.Join(parts, ".")
}

// RandomToken renders the replay token of a seeded random schedule.
func RandomToken(seed int64) string { return fmt.Sprintf("rand:%d", seed) }

// PCTToken renders the replay token of a PCT schedule.
func PCTToken(seed int64, depth int) string { return fmt.Sprintf("pct:%d:%d", seed, depth) }

// RoundRobinToken is the replay token of the deterministic round-robin
// schedule.
const RoundRobinToken = "rr"

// Parse limits. Replay tokens arrive over trust boundaries (the
// parcoachd HTTP API forwards client-supplied tokens straight here), so
// Parse enforces hard caps instead of letting a hostile token allocate
// or loop proportionally to its content: tokens longer than
// MaxTokenLen are rejected before any splitting, trace ids must lie in
// [0, MaxTraceID] (thread ids are creation-ordered and a run can never
// have more threads than it has scheduling decisions), and PCT depths
// must lie in [1, MaxPCTDepth].
const (
	// MaxTokenLen bounds the accepted token length (1 MiB): a trace
	// token of that size already names a schedule with ~500k branch
	// points, far beyond anything the exploration engine emits.
	MaxTokenLen = 1 << 20
	// MaxTraceID bounds a single thread id inside a trace token.
	MaxTraceID = 1 << 20
	// MaxPCTDepth bounds the pct token's priority-change depth.
	MaxPCTDepth = 1 << 10
)

// quote truncates hostile-length tokens for error messages, so the
// error for a multi-MB token is not itself multi-MB.
func quote(token string) string {
	const max = 64
	if len(token) > max {
		return fmt.Sprintf("%q... (%d bytes)", token[:max], len(token))
	}
	return fmt.Sprintf("%q", token)
}

// numErr names a strconv failure without echoing the offending field:
// strconv errors quote the full input, which for a hostile token would
// make the error message itself unbounded.
func numErr(err error) string {
	if errors.Is(err, strconv.ErrRange) {
		return "integer out of range"
	}
	return "not an integer"
}

// Parse turns a replay token back into the scheduler that produced the
// run: "rr", "rand:<seed>", "pct:<seed>:<depth>", or "trace:0.2.1",
// which becomes a Recorder that follows the trace and records nothing.
// Hostile input — oversized tokens, out-of-range ids, malformed numbers
// — is rejected with an error, never a panic or unbounded allocation.
func Parse(token string) (Scheduler, error) {
	if len(token) > MaxTokenLen {
		return nil, fmt.Errorf("sched: token too long (%d bytes, max %d)", len(token), MaxTokenLen)
	}
	switch {
	case token == RoundRobinToken:
		return NewRoundRobin(), nil
	case strings.HasPrefix(token, "rand:"):
		seed, err := strconv.ParseInt(token[len("rand:"):], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sched: bad random token %s: %s", quote(token), numErr(err))
		}
		return NewRandom(seed), nil
	case strings.HasPrefix(token, "pct:"):
		parts := strings.Split(token[len("pct:"):], ":")
		if len(parts) != 2 {
			return nil, fmt.Errorf("sched: bad pct token %s (want pct:<seed>:<depth>)", quote(token))
		}
		seed, err := strconv.ParseInt(parts[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sched: bad pct seed in %s: %s", quote(token), numErr(err))
		}
		depth, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("sched: bad pct depth in %s: %s", quote(token), numErr(err))
		}
		if depth < 1 || depth > MaxPCTDepth {
			return nil, fmt.Errorf("sched: pct depth %d out of range [1, %d] in %s", depth, MaxPCTDepth, quote(token))
		}
		return NewPCT(seed, depth, 0), nil
	case strings.HasPrefix(token, "trace:"):
		body := token[len("trace:"):]
		var trace []ThreadID
		if body != "" {
			for _, part := range strings.Split(body, ".") {
				id, err := strconv.Atoi(part)
				if err != nil {
					return nil, fmt.Errorf("sched: bad trace token %s: %s", quote(token), numErr(err))
				}
				if id < 0 || id > MaxTraceID {
					return nil, fmt.Errorf("sched: trace id %d out of range [0, %d] in %s", id, MaxTraceID, quote(token))
				}
				trace = append(trace, ThreadID(id))
			}
		}
		return &Recorder{Prefix: trace}, nil
	}
	return nil, fmt.Errorf("sched: unknown schedule token %s", quote(token))
}
