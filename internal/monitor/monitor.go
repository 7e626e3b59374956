// Package monitor is the blocking kernel shared by the simulated MPI and
// OpenMP runtimes: a single global monitor through which every blocking
// operation (collective wait, message rendezvous, team barrier, single
// election wait, critical acquisition, CC agreement) must pass.
//
// The run's scheduling controller (internal/sched) is its one thread
// table: it knows every thread's state, so it finds the deadlock the
// instant it happens — threads remain, yet none can run — and calls back
// into the monitor, which aborts the run with a report listing what
// every thread was waiting for. Because every wait is registered here,
// that report is exact and needs no timeout. This replaces the "job
// hangs on the cluster until the batch limit" experience the paper's
// tool is designed to prevent — and gives the test suite an exact oracle
// for the error programs the validator must catch before this point.
//
// A run takes no lock. Its threads run one at a time under the
// controller, so the waiter table, the free list and the state of the
// subsystems built on the monitor are only ever touched by the running
// thread, or by the driver while no thread runs. The one caller from
// outside the run is Interrupt (a canceled context or a watchdog), and
// three invariants order it against the run instead of a lock:
//
//  1. The abort cause is the only monitor field written from outside the
//     run: one atomic pointer, set by the first abort. Besides it,
//     Interrupt touches only the controller's release flag.
//  2. Every abort publishes its cause before it releases the controller,
//     so a thread the release lets run always reads the cause. An abort
//     that loses the race for the cause still releases, so the run is
//     released once any abort has returned.
//  3. A wait ends either by a wake, and Await returns nil, or by the
//     abort, and Await returns the cause. A wake after the abort does
//     nothing, and a waiter created after the abort never parks.
package monitor

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Monitor coordinates all blocking in one run.
type Monitor struct {
	// cause is the run's abort error, nil while the run is healthy.
	cause    atomic.Pointer[error]
	waiters  map[*Waiter]bool
	analyzer []func() []string
	sched    SchedHook
	// free recycles Waiter structs: a thread that blocks in a loop —
	// team barriers, collective rounds — reuses one waiter instead of
	// allocating per wait. Waiters return here at the end of Await, when
	// nothing else can reference them (wakes are precise and happen
	// exactly once per wait).
	free []*Waiter
}

// SchedHook is the scheduling controller interface (internal/sched): a
// serializing scheduler that runs the run's threads itself and lets
// exactly one run at a time. Every run has one. It tracks the run's
// threads from Go until their functions return, and the monitor is the
// single chokepoint every blocking transition passes through, so its
// transition callbacks are all a controller needs to keep its runnable
// set exact. Gates are passed as `any` so the monitor stays free of
// scheduler types.
//
// HolderParked, WaiterWoken and Resume are called on the running
// thread. ReleaseAll is called there or on the driver, and by Interrupt
// from outside the run.
type SchedHook interface {
	// HolderParked: the running thread just registered as blocked. It
	// returns the thread's parked gate, nil when the run is released.
	HolderParked() (gate any)
	// WaiterWoken: the wait parked on gate was released; its thread is
	// runnable again.
	WaiterWoken(gate any)
	// Resume: the thread parked on gate is about to wait. It suspends
	// until the controller resumes it, which happens only once the wait
	// was woken or the run aborted.
	Resume(gate any)
	// ReleaseAll: the run aborted; stop scheduling, free everything. It
	// must be idempotent. holder reports whether the abort runs while the
	// token holder cannot (on its own thread, or on the driver); only
	// then may the controller read the holder's per-thread state.
	// Called with holder false, from outside the run, it may only raise
	// its release flag.
	ReleaseAll(holder bool)
	// Go starts fn as a thread of the run (see Monitor.Go).
	Go(fn func())
	// Drive runs the threads until every one has returned, handing each
	// thread's panic to panicked, and calling deadlocked when threads
	// remain but none is runnable although the run was not released
	// (see Monitor.Drive).
	Drive(panicked func(value any, stack []byte), deadlocked func())
}

// SetSched installs the scheduling controller. Must be called before the
// run starts: a monitor with no controller cannot run threads, and Go
// panics.
func (m *Monitor) SetSched(h SchedHook) { m.sched = h }

// Go runs fn as one of the run's threads, on one of the controller's
// coroutines, resumed from Drive. The thread is live until fn returns.
func (m *Monitor) Go(fn func()) { m.sched.Go(fn) }

// Drive runs the run's threads on the calling goroutine until every
// thread started with Go has returned. A thread that panics aborts the
// run with a QuarantineError carrying the panic value and the thread's
// stack. When threads remain but none can run — every one is blocked,
// or the last runnable one returned while the rest wait — the run is
// deadlocked: Drive aborts it with a DeadlockError listing every wait
// and every analyzer's context, and the threads unwind.
func (m *Monitor) Drive() { m.sched.Drive(m.threadPanicked, m.deadlocked) }

func (m *Monitor) threadPanicked(value any, stack []byte) {
	m.Abort(&QuarantineError{Op: "sched.thread", Value: value, Stack: stack})
}

// deadlocked aborts the run with the deadlock report: nothing can ever
// wake the remaining threads.
func (m *Monitor) deadlocked() {
	var lines []string
	for w := range m.waiters {
		lines = append(lines, fmt.Sprintf("  %s: %s", w.Reason, w.detail()))
	}
	sort.Strings(lines)
	for _, f := range m.analyzer {
		for _, l := range f() {
			lines = append(lines, "  "+l)
		}
	}
	m.Abort(&DeadlockError{Details: lines})
}

// New returns an empty monitor.
func New() *Monitor {
	return &Monitor{waiters: make(map[*Waiter]bool)}
}

// Waiter represents one blocked thread.
type Waiter struct {
	// Reason is the operation class ("MPI collective", "team barrier", ...).
	Reason string
	// detail lazily describes the instance ("rank 2: MPI_Bcast (call
	// #14)"); it is only invoked when a deadlock report is built, so the
	// hot path never pays the formatting. It runs on the driver at report
	// time, describing the (then frozen) deadlock state.
	detail func() string
	m      *Monitor
	// gate is the controller's handle of the parked thread, nil when the
	// wait never parked.
	gate any
}

// AddAnalyzer registers a callback that contributes context lines to the
// deadlock report (e.g. the MPI matcher describing which ranks already
// finalized). Must be called before the run starts.
func (m *Monitor) AddAnalyzer(f func() []string) { m.analyzer = append(m.analyzer, f) }

// NewWaiter registers the running thread as blocked; the thread then
// calls Await on the returned waiter. detail is deferred: it is only
// called if the wait ends up in a deadlock report. A waiter created after the abort never
// parks: its Await returns the cause at once.
func (m *Monitor) NewWaiter(reason string, detail func() string) *Waiter {
	var w *Waiter
	if n := len(m.free); n > 0 {
		w = m.free[n-1]
		m.free = m.free[:n-1]
		w.Reason, w.detail, w.gate = reason, detail, nil
	} else {
		w = &Waiter{Reason: reason, detail: detail, m: m}
	}
	m.waiters[w] = true
	if !m.Aborted() {
		w.gate = m.sched.HolderParked()
	}
	return w
}

// Wake releases a waiter. Wakes are precise: the waker has already
// established the condition the waiter was blocked on. A second wake of
// one wait does nothing, and so does a wake after the abort: that wait
// ends with the cause.
func (m *Monitor) Wake(w *Waiter) {
	if !m.waiters[w] || m.Aborted() {
		return
	}
	delete(m.waiters, w)
	m.sched.WaiterWoken(w.gate)
}

// Await blocks until woken or aborted, returning nil for a wake and the
// cause for an abort. The thread suspends in the controller's Resume
// until the controller resumes it, by when the wake or the abort has
// happened. A wait still registered then was not woken, so the abort
// ended it, and its cause was published before the release that let the
// thread run. The waiter is dead after Await returns — it goes back on
// the monitor's free list, so callers must not retain it.
func (w *Waiter) Await() error {
	m := w.m
	m.sched.Resume(w.gate)
	var err error
	if m.waiters[w] {
		delete(m.waiters, w)
		err = m.Err()
	}
	m.free = append(m.free, w)
	return err
}

// Abort fails the run: the first cause wins, Aborted flips so running
// threads stop at their next check, and the controller releases the
// run, so every parked wait ends with the cause. Only the run's own
// threads and its driver call it; callers outside the run use
// Interrupt.
func (m *Monitor) Abort(err error) { m.abort(err, true) }

// Interrupt is Abort for callers outside the run's threads (cancellation
// and watchdogs): the token holder may still be mid-step, so it writes
// only the cause and the controller's release flag, and the run's
// threads notice at their next check.
func (m *Monitor) Interrupt(err error) { m.abort(err, false) }

func (m *Monitor) abort(err error, holder bool) {
	m.cause.CompareAndSwap(nil, &err)
	m.sched.ReleaseAll(holder)
}

// Aborted reports whether the run failed: one atomic load, so
// interpreters can poll it on every statement.
func (m *Monitor) Aborted() bool { return m.cause.Load() != nil }

// Err returns the abort cause, if any.
func (m *Monitor) Err() error {
	if p := m.cause.Load(); p != nil {
		return *p
	}
	return nil
}

// Reset rearms the monitor for a fresh run, keeping the waiter free
// list warm. Only call once the previous run's Drive has returned and
// nothing outside the run can still Interrupt it; the next run installs
// its own controller.
func (m *Monitor) Reset() {
	clear(m.waiters)
	m.cause.Store(nil)
	// Analyzers are kept: the owning world and verifier recycle along
	// with the monitor and their registrations stay valid.
	m.sched = nil
}

// IsDeadlock reports whether err is (or wraps) the monitor's deadlock
// report — the oracle outcome the validation layers must preempt.
func IsDeadlock(err error) bool {
	var de *DeadlockError
	return errors.As(err, &de)
}

// QuarantineError wraps a panic caught at a pool, job or thread
// boundary: the panicking run or compile is classified as an internal
// error (interp.OutcomeInternalError), a bug in the validator rather
// than in the validated program, and the pool, session and cache stay
// healthy instead of the process dying. Stack is the panicking
// goroutine's stack at recovery time.
type QuarantineError struct {
	// Op names the boundary that caught the panic ("explore.run",
	// "campaign.execute", "compile", "sched.thread", ...).
	Op    string
	Value any
	Stack []byte
}

func (e *QuarantineError) Error() string {
	return fmt.Sprintf("panic quarantined at %s: %v", e.Op, e.Value)
}

// DeadlockError reports that every live thread was blocked.
type DeadlockError struct {
	Details []string
}

// Error renders the full report.
func (e *DeadlockError) Error() string {
	var b strings.Builder
	b.WriteString("deadlock: every live thread is blocked")
	if len(e.Details) > 0 {
		b.WriteString("\n")
		b.WriteString(strings.Join(e.Details, "\n"))
	}
	return b.String()
}
