// Fault-tolerant execution: external cancellation, per-run wall-clock
// watchdogs, and panic quarantine.
//
// The cancellation lever is the run's scheduling controller:
// Interrupt(err) publishes the abort cause, which every statement
// boundary polls and which releases the run, so every parked thread runs
// and ends its wait with the cause — once a guard fires, a run stops
// within one statement. It touches nothing else of the run.
// RunCtx arms a guard from a context (context.AfterFunc) and
// Options.WallTimeout arms one from a timer; both go through the same
// mutex-disciplined runGuard so a late firing can never abort the *next*
// run on a recycled environment.
package interp

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"parcoach/internal/monitor"
	"parcoach/internal/sched"
)

// CancelError reports that a run was stopped by external cancellation
// (a canceled context: client disconnect, SIGTERM, job timeout). It
// classifies as OutcomeCanceled.
type CancelError struct {
	// Cause is the context's cancellation cause (context.Canceled,
	// context.DeadlineExceeded, or whatever CancelCause recorded).
	Cause error
}

func (e *CancelError) Error() string {
	if e.Cause == nil {
		return "run canceled"
	}
	return fmt.Sprintf("run canceled: %v", e.Cause)
}

func (e *CancelError) Unwrap() error { return e.Cause }

// WatchdogError reports that a run exceeded Options.WallTimeout and was
// aborted by the per-run watchdog. It classifies as OutcomeTimeout.
type WatchdogError struct {
	Timeout time.Duration
}

func (e *WatchdogError) Error() string {
	return fmt.Sprintf("run exceeded wall-clock watchdog (%v)", e.Timeout)
}

// QuarantineError wraps a panic caught at a pool, job or thread
// boundary; it classifies as OutcomeInternalError. Package monitor
// defines it because a run's controller (internal/sched) quarantines
// thread panics with it.
type QuarantineError = monitor.QuarantineError

// NewQuarantineError builds the quarantined form of a recovered panic.
func NewQuarantineError(op string, value any, stack []byte) *QuarantineError {
	return &QuarantineError{Op: op, Value: value, Stack: stack}
}

// Process-wide robustness counters: the daemon's /stats reads them,
// tests assert their deltas.
var (
	canceledRuns atomic.Int64
	watchdogRuns atomic.Int64
)

// CanceledRuns reports the process-wide count of runs stopped by
// context cancellation (before or during execution).
func CanceledRuns() int64 { return canceledRuns.Load() }

// WatchdogRuns reports the process-wide count of runs aborted by the
// wall-clock watchdog.
func WatchdogRuns() int64 { return watchdogRuns.Load() }

// runGuard aborts one run from outside: on context cancellation, on
// watchdog expiry, or both. The mutex is the recycling discipline —
// disarm() takes it after stopping both triggers, so once disarm
// returns no late callback can touch the (about to be recycled)
// controller, and a callback that lost the race to disarm sees done and
// leaves.
type runGuard struct {
	mu       sync.Mutex
	ctl      *sched.Controller
	done     bool
	canceled bool
	timedOut bool

	timer   *time.Timer
	stopCtx func() bool
}

// armGuard installs the run's external-abort triggers; nil when neither
// a cancelable context nor a wall timeout is configured (the zero-cost
// hot path of plain Run).
func (s *Session) armGuard(ctx context.Context, ctl *sched.Controller) *runGuard {
	hasCtx := ctx != nil && ctx.Done() != nil
	wall := s.opts.WallTimeout
	if !hasCtx && wall <= 0 {
		return nil
	}
	g := &runGuard{ctl: ctl}
	if hasCtx {
		g.stopCtx = context.AfterFunc(ctx, func() {
			g.fire(true, &CancelError{Cause: context.Cause(ctx)})
		})
	}
	if wall > 0 {
		g.timer = time.AfterFunc(wall, func() {
			g.fire(false, &WatchdogError{Timeout: wall})
		})
	}
	return g
}

// fire aborts the run unless the guard was already disarmed.
func (g *runGuard) fire(isCancel bool, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.done {
		return
	}
	if isCancel {
		g.canceled = true
	} else {
		g.timedOut = true
	}
	// The first cause wins: a run that already failed on its own keeps
	// its error.
	g.ctl.Interrupt(err)
}

// disarm stops both triggers and waits out any in-flight firing. After
// it returns the controller is safe to recycle. Reports which triggers
// fired during the run.
func (g *runGuard) disarm() (canceled, timedOut bool) {
	if g.timer != nil {
		g.timer.Stop()
	}
	if g.stopCtx != nil {
		g.stopCtx()
	}
	g.mu.Lock()
	g.done = true
	canceled, timedOut = g.canceled, g.timedOut
	g.mu.Unlock()
	return canceled, timedOut
}
