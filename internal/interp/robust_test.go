package interp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"parcoach/internal/leakcheck"
	"parcoach/internal/monitor"
	"parcoach/internal/mpi"
	"parcoach/internal/parser"
	"parcoach/internal/sched"
	"parcoach/internal/verifier"
)

// spinSrc loops far past any test's patience: the program every
// cancellation and watchdog test needs to interrupt. The bound keeps it
// a terminating program in principle (no special-casing in the
// interpreter), just one that never finishes before an abort.
const spinSrc = `
func main() {
	MPI_Init()
	var i = 0
	while i < 2000000000 {
		i = i + 1
	}
	MPI_Finalize()
	return i
}
`

// cancelLatencyBound is the asserted ceiling between cancel and the
// run's return. The real latency is one statement boundary (~µs); the
// bound is generous for loaded CI machines while still proving the run
// did not spin its remaining ~2e9 iterations.
const cancelLatencyBound = 5 * time.Second

// TestRunCtxCancelBoundedLatency: canceling the context aborts an
// in-flight run within a bounded interval, the result classifies as
// OutcomeCanceled carrying the cancellation cause, and the process-wide
// counters record it.
func TestRunCtxCancelBoundedLatency(t *testing.T) {
	prog := parser.MustParse("spin.mh", spinSrc)
	sess := NewSession(prog, Options{Procs: 2, Threads: 2})
	ctx, cancel := context.WithCancelCause(context.Background())
	canceled, watchdogs := CanceledRuns(), WatchdogRuns()

	done := make(chan *Result, 1)
	go func() { done <- sess.RunCtx(ctx, sched.NewRoundRobin()) }()
	time.Sleep(20 * time.Millisecond) // let the run get into the loop
	cause := errors.New("client disconnected")
	canceledAt := time.Now()
	cancel(cause)

	var res *Result
	select {
	case res = <-done:
	case <-time.After(cancelLatencyBound):
		t.Fatalf("run did not return within %v of cancellation", cancelLatencyBound)
	}
	if elapsed := time.Since(canceledAt); elapsed > cancelLatencyBound {
		t.Fatalf("cancellation latency %v exceeds bound %v", elapsed, cancelLatencyBound)
	}
	if got := res.Outcome(); got != OutcomeCanceled {
		t.Fatalf("canceled run classified %s (err %v), want %s", got, res.Err, OutcomeCanceled)
	}
	var ce *CancelError
	if !errors.As(res.Err, &ce) || !errors.Is(ce.Cause, cause) {
		t.Fatalf("canceled run error %v does not carry the cancellation cause", res.Err)
	}
	if got := CanceledRuns() - canceled; got != 1 {
		t.Fatalf("CanceledRuns() moved by %d, want 1", got)
	}
	if got := WatchdogRuns() - watchdogs; got != 0 {
		t.Fatalf("cancellation moved WatchdogRuns() by %d", got)
	}
}

// TestRunCtxRefusesCanceledContext: a context canceled before the run
// starts is refused outright — no world is built, the result is
// OutcomeCanceled, and the counter still moves (a refused run is a
// canceled run for accounting).
func TestRunCtxRefusesCanceledContext(t *testing.T) {
	prog := parser.MustParse("spin.mh", spinSrc)
	sess := NewSession(prog, Options{Procs: 2, Threads: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	canceled := CanceledRuns()

	start := time.Now()
	res := sess.RunCtx(ctx, sched.NewRoundRobin())
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("pre-canceled run took %v: it executed instead of refusing", elapsed)
	}
	if got := res.Outcome(); got != OutcomeCanceled {
		t.Fatalf("pre-canceled run classified %s, want %s", got, OutcomeCanceled)
	}
	if res.Stats.Steps != 0 {
		t.Fatalf("pre-canceled run executed %d steps", res.Stats.Steps)
	}
	if got := CanceledRuns() - canceled; got != 1 {
		t.Fatalf("CanceledRuns() moved by %d, want 1", got)
	}
}

// TestWallTimeoutWatchdog: Options.WallTimeout abandons a wedged run as
// OutcomeTimeout within a bounded interval, counts it, and leaves the
// session fully usable — the next run times out identically instead of
// inheriting poisoned state.
func TestWallTimeoutWatchdog(t *testing.T) {
	prog := parser.MustParse("spin.mh", spinSrc)
	sess := NewSession(prog, Options{Procs: 2, Threads: 2, WallTimeout: 50 * time.Millisecond})
	canceled, watchdogs := CanceledRuns(), WatchdogRuns()

	for i := 1; i <= 2; i++ {
		done := make(chan *Result, 1)
		go func() { done <- sess.Run(sched.NewRoundRobin()) }()
		var res *Result
		select {
		case res = <-done:
		case <-time.After(cancelLatencyBound):
			t.Fatalf("run %d did not return within %v of the watchdog deadline", i, cancelLatencyBound)
		}
		if got := res.Outcome(); got != OutcomeTimeout {
			t.Fatalf("run %d classified %s (err %v), want %s", i, got, res.Err, OutcomeTimeout)
		}
		var we *WatchdogError
		if !errors.As(res.Err, &we) || we.Timeout != 50*time.Millisecond {
			t.Fatalf("run %d error %v is not the watchdog's", i, res.Err)
		}
		if got := WatchdogRuns() - watchdogs; got != int64(i) {
			t.Fatalf("after run %d: WatchdogRuns() moved by %d, want %d", i, got, i)
		}
	}
	if got := CanceledRuns() - canceled; got != 0 {
		t.Fatalf("watchdog aborts moved CanceledRuns() by %d", got)
	}
}

// TestGuardDisarmedBeforeRecycle: a context canceled AFTER its run
// completed must never abort a later run on the recycled environment —
// the disarm-before-recycle discipline. The clean program finishes fast;
// the late cancel then races nothing.
func TestGuardDisarmedBeforeRecycle(t *testing.T) {
	prog := parser.MustParse("clean.mh", sessionSrc)
	sess := NewSession(prog, Options{Procs: 2, Threads: 2})
	canceled := CanceledRuns()

	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		if res := sess.RunCtx(ctx, sched.NewRoundRobin()); res.Err != nil {
			t.Fatalf("run %d under a live context failed: %v", i, res.Err)
		}
		cancel() // fires (if at all) against a disarmed guard
		if res := sess.Run(sched.NewRoundRobin()); res.Err != nil {
			t.Fatalf("run %d after a late cancel failed: %v — a stale guard aborted a recycled env", i, res.Err)
		}
	}
	if got := CanceledRuns() - canceled; got != 0 {
		t.Fatalf("completed runs counted as canceled: %d", got)
	}
}

// TestClassifyRobustOutcomes pins the error → outcome mapping of every
// class, for the error itself and for the error wrapped once with %w;
// an error of no class is a runtime error.
func TestClassifyRobustOutcomes(t *testing.T) {
	cases := []struct {
		err  error
		want Outcome
	}{
		{&verifier.Error{}, OutcomeCheckAbort},
		{&verifier.ValueError{}, OutcomeValueError},
		{&monitor.DeadlockError{}, OutcomeDeadlock},
		{&StepLimitError{}, OutcomeBudget},
		{&mpi.MismatchError{}, OutcomeMPIError},
		{&mpi.ConcurrentCallError{}, OutcomeMPIError},
		{&mpi.UsageError{}, OutcomeMPIError},
		{&RuntimeError{}, OutcomeRuntimeError},
		{&CancelError{Cause: context.Canceled}, OutcomeCanceled},
		{&WatchdogError{Timeout: time.Second}, OutcomeTimeout},
		{NewQuarantineError("test", "boom", nil), OutcomeInternalError},
		{errors.New("unclassified"), OutcomeRuntimeError},
	}
	for _, tc := range cases {
		if got := ClassifyError(tc.err); got != tc.want {
			t.Errorf("ClassifyError(%T) = %s, want %s", tc.err, got, tc.want)
		}
		if got := ClassifyError(fmt.Errorf("wrapped: %w", tc.err)); got != tc.want {
			t.Errorf("ClassifyError(wrapped %T) = %s, want %s", tc.err, got, tc.want)
		}
	}
	if got := ClassifyError(nil); got != OutcomeClean {
		t.Errorf("ClassifyError(nil) = %s, want %s", got, OutcomeClean)
	}
}

// waitsSrc keeps its threads in every kind of wait: each round checks
// an MPI_Allreduce result, runs a region whose threads meet in a
// critical section, at a barrier and at a single, and checks an
// MPI_Send/MPI_Recv payload. It returns how many values it found wrong.
const waitsSrc = `
func main() {
	MPI_Init()
	var bad = 0
	for it = 0 .. 100 {
		var s = 0
		MPI_Allreduce(s, rank() + it, sum)
		if s != 1 + 2 * it {
			bad = bad + 1
		}
		var c = 0
		var once = 0
		parallel {
			critical {
				c += 1
			}
			barrier
			single {
				once += 1
			}
		}
		if c != 2 || once != 1 {
			bad = bad + 1
		}
		var v = 0
		if rank() == 0 {
			MPI_Send(7 * it, 1, 3)
		} else {
			MPI_Recv(v, 0, 3)
			if v != 7 * it {
				bad = bad + 1
			}
		}
	}
	MPI_Finalize()
	return bad
}
`

// TestInterruptDuringWaits: aborts from outside the run (a canceled
// context, a wall-clock watchdog) land at random points of random
// schedules, while threads are parked in waits and wakes are in
// flight. Every run must end either interrupted or clean with correct
// values: an outside abort must never surface as a deadlock, a
// mismatch, a wrong value or an internal error.
func TestInterruptDuringWaits(t *testing.T) {
	leakcheck.Check(t)
	prog := parser.MustParse("waits.mh", waitsSrc)
	opts := Options{Procs: 2, Threads: 2}

	// A clean run's duration bounds the abort delays, so most aborts
	// land mid-run.
	sess := NewSession(prog, opts)
	var span time.Duration
	for seed := int64(0); seed < 3; seed++ {
		start := time.Now()
		res := sess.Run(sched.NewRandom(seed))
		span = max(span, time.Since(start))
		if res.Err != nil || res.ExitValues[0] != 0 || res.ExitValues[1] != 0 {
			t.Fatalf("uninterrupted run: err %v, exit values %v", res.Err, res.ExitValues)
		}
	}

	rows := []struct {
		name        string
		interrupted Outcome
		run         func(seed int64, delay time.Duration) *Result
	}{
		{"context", OutcomeCanceled, func(seed int64, delay time.Duration) *Result {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			timer := time.AfterFunc(delay, cancel)
			defer timer.Stop()
			return sess.RunCtx(ctx, sched.NewRandom(seed))
		}},
		{"watchdog", OutcomeTimeout, func(seed int64, delay time.Duration) *Result {
			o := opts
			o.WallTimeout = delay
			return NewSession(prog, o).Run(sched.NewRandom(seed))
		}},
	}
	const runs = 200
	rng := rand.New(rand.NewSource(1))
	for _, row := range rows {
		interrupted := 0
		for seed := int64(0); seed < runs; seed++ {
			delay := 1 + time.Duration(rng.Int63n(int64(span)))
			res := row.run(seed, delay)
			switch res.Outcome() {
			case row.interrupted:
				interrupted++
			case OutcomeClean:
				if res.ExitValues[0] != 0 || res.ExitValues[1] != 0 {
					t.Fatalf("%s: rand:%d aborted after %v ran clean with wrong values %v", row.name, seed, delay, res.ExitValues)
				}
			default:
				t.Fatalf("%s: rand:%d aborted after %v ended %s: %v", row.name, seed, delay, res.Outcome(), res.Err)
			}
		}
		if interrupted == 0 {
			t.Errorf("%s: none of %d runs was interrupted; the delays (up to %v) land after the runs", row.name, runs, span)
		}
		t.Logf("%s: %d of %d runs interrupted", row.name, interrupted, runs)
	}
}
