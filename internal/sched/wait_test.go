package sched

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"parcoach/internal/monitor"
)

// The blocking kernel: every test runs its threads on a real controller,
// serialized in round-robin order unless it names another scheduler.

// runThreads runs each fn as a thread of one run under s (round-robin
// when nil) and drives the run until every thread has returned.
func runThreads(s Scheduler, fns ...func(c *Controller)) *Controller {
	if s == nil {
		s = NewRoundRobin()
	}
	c := NewController(s)
	for _, fn := range fns {
		c.Go(func() { fn(c) })
	}
	c.Drive()
	return c
}

// wait parks the calling thread with a fixed detail.
func wait(c *Controller, reason, detail string) error {
	return c.Wait(reason, func() string { return detail })
}

// interrupt calls Interrupt from another goroutine, as a canceled
// context or a watchdog does, and returns once it has.
func interrupt(c *Controller, err error) {
	done := make(chan struct{})
	go func() {
		c.Interrupt(err)
		close(done)
	}()
	<-done
}

// TestWaitBlocksUntilWake: Wait suspends the thread until what ends the
// wait has happened, and returns nil for a wake and the cause for an
// abort. A wake after an Interrupt does nothing: the wait ends with the
// cause.
func TestWaitBlocksUntilWake(t *testing.T) {
	var log []string
	var g0 *Gate
	runThreads(nil,
		func(c *Controller) {
			g0 = c.Running()
			log = append(log, "wait")
			err := wait(c, "test", "w1")
			log = append(log, fmt.Sprintf("woken: %v", err))
		},
		func(c *Controller) {
			log = append(log, "wake")
			c.Wake(g0)
			log = append(log, "waker returns")
		},
	)
	if got, want := strings.Join(log, ", "), "wait, wake, waker returns, woken: <nil>"; got != want {
		t.Errorf("transitions %q, want %q", got, want)
	}

	boom := errors.New("boom")
	var err error
	c := runThreads(nil,
		func(c *Controller) { err = wait(c, "test", "w2") },
		func(c *Controller) { interrupt(c, boom) },
	)
	if err != boom || c.Err() != boom {
		t.Errorf("wait interrupted while suspended = %v (run error %v), want boom", err, c.Err())
	}

	// An Interrupt lands while the thread is suspended, then a thread of
	// the run that has not reached its next check wakes the wait: the
	// wake does nothing, and the wait ends with the cause.
	runThreads(nil,
		func(c *Controller) {
			g0 = c.Running()
			err = wait(c, "test", "w3")
		},
		func(c *Controller) {
			interrupt(c, boom)
			c.Wake(g0)
			if g0.state != gateParked {
				t.Error("a wake after the abort reached the controller")
			}
		},
	)
	if err != boom {
		t.Errorf("wait woken after an Interrupt = %v, want boom", err)
	}

	// A wake ends the wait before a later abort can: the woken wait
	// returns nil, and its thread meets the cause at its next check.
	runThreads(nil,
		func(c *Controller) {
			g0 = c.Running()
			err = wait(c, "test", "w4")
		},
		func(c *Controller) {
			c.Wake(g0)
			c.Abort(boom)
		},
	)
	if err != nil {
		t.Errorf("wait woken before the abort = %v, want nil", err)
	}
}

// TestAbortWakesAllWithError: an Abort ends every parked wait with its
// cause.
func TestAbortWakesAllWithError(t *testing.T) {
	boom := errors.New("boom")
	errs := make([]error, 2)
	c := runThreads(nil,
		func(c *Controller) { errs[0] = wait(c, "test", "w") },
		func(c *Controller) { errs[1] = wait(c, "test", "w") },
		func(c *Controller) { c.Abort(boom) },
	)
	for i, err := range errs {
		if err != boom {
			t.Errorf("wait %d after abort = %v, want boom", i, err)
		}
	}
	if !c.Aborted() || c.Err() != boom {
		t.Error("abort state not recorded")
	}
}

// TestFirstAbortWins: later aborts, from the run or from outside it,
// keep the first cause.
func TestFirstAbortWins(t *testing.T) {
	c := NewController(nil)
	e1, e2, e3 := errors.New("first"), errors.New("second"), errors.New("third")
	c.Abort(e1)
	c.Abort(e2)
	c.Interrupt(e3)
	if c.Err() != e1 {
		t.Errorf("Err = %v, want first", c.Err())
	}
}

// TestWaitAfterAbortNeverParks: a wait made after the abort returns the
// cause at once, without parking or taking a scheduling decision.
func TestWaitAfterAbortNeverParks(t *testing.T) {
	boom := errors.New("boom")
	var err error
	runThreads(nil, func(c *Controller) {
		c.Abort(boom)
		g, seq := c.Running(), c.seq
		err = wait(c, "test", "late")
		if g.state != gateReady || c.seq != seq {
			t.Error("a wait after the abort parked")
		}
	})
	if err != boom {
		t.Errorf("late wait = %v, want boom", err)
	}
}

// TestSecondWakeDoesNothing: once a wake ended a wait, a second wake of
// that wait leaves the controller alone, also after the woken thread
// has returned.
func TestSecondWakeDoesNothing(t *testing.T) {
	var g0 *Gate
	var err error
	c := runThreads(nil,
		func(c *Controller) {
			g0 = c.Running()
			err = wait(c, "test", "w")
		},
		func(c *Controller) {
			c.Wake(g0)
			c.Wake(g0)
			if len(c.ready) != 2 || g0.state != gateReady {
				t.Errorf("second wake: ready set %v, woken gate in state %d", c.ready, g0.state)
			}
			// Round-robin hands the token to thread 0, which returns.
			_ = c.Running().Yield(1)
			c.Wake(g0)
			if len(c.ready) != 1 || g0.state != gateDone {
				t.Errorf("wake after return: ready set %v, returned gate in state %d", c.ready, g0.state)
			}
		},
	)
	if err != nil || c.Err() != nil {
		t.Errorf("wait = %v, run error %v; want both nil", err, c.Err())
	}
}

// TestQuiescenceDetectsAllBlocked: the last thread to park completes
// the deadlock, and every wait ends with the report.
func TestQuiescenceDetectsAllBlocked(t *testing.T) {
	errs := make([]error, 2)
	c := runThreads(nil,
		func(c *Controller) { errs[0] = wait(c, "test wait", "thread blocked forever") },
		func(c *Controller) { errs[1] = wait(c, "test wait", "thread blocked forever") },
	)
	for i, err := range errs {
		var d *monitor.DeadlockError
		if !errors.As(err, &d) {
			t.Fatalf("thread %d: want DeadlockError, got %v", i, err)
		}
		if !strings.Contains(d.Error(), "thread blocked forever") {
			t.Errorf("report must include the waits' details: %v", d)
		}
	}
	if !errors.As(c.Err(), new(*monitor.DeadlockError)) {
		t.Errorf("run error %v, want the deadlock report", c.Err())
	}
}

// TestQuiescenceOnThreadExit: a thread returning while every other one
// waits is a deadlock (a process returning from main while its peers
// wait in a collective), found once the thread has returned.
func TestQuiescenceOnThreadExit(t *testing.T) {
	var err error
	abortedAtExit := true
	runThreads(nil,
		func(c *Controller) { err = wait(c, "MPI collective", "rank 0: MPI_Barrier") },
		// The second thread returns without ever waking the first.
		func(c *Controller) { abortedAtExit = c.Aborted() },
	)
	if abortedAtExit {
		t.Error("run aborted before the exiting thread returned")
	}
	var d *monitor.DeadlockError
	if !errors.As(err, &d) || !strings.Contains(d.Error(), "rank 0: MPI_Barrier") {
		t.Fatalf("want DeadlockError naming the wait after exit, got %v", err)
	}
}

// TestNoFalseQuiescenceWhileRunnable: one thread blocked while another
// runs is no deadlock; the runner wakes the waiter and both finish.
func TestNoFalseQuiescenceWhileRunnable(t *testing.T) {
	var g0 *Gate
	var err error
	c := runThreads(nil,
		func(c *Controller) {
			g0 = c.Running()
			err = wait(c, "test", "one blocked")
		},
		func(c *Controller) {
			if c.Aborted() {
				t.Error("false quiescence")
			}
			c.Wake(g0)
		},
	)
	if err != nil || c.Err() != nil {
		t.Errorf("wait = %v, run error %v; want both nil", err, c.Err())
	}
}

func TestAllThreadsExitedIsNotDeadlock(t *testing.T) {
	c := runThreads(nil, func(*Controller) {})
	if c.Aborted() {
		t.Errorf("clean exit treated as deadlock: %v", c.Err())
	}
}

func TestAnalyzerContributesToReport(t *testing.T) {
	c := NewController(nil)
	c.AddAnalyzer(func() []string { return []string{"rank 1: finalized"} })
	var err error
	c.Go(func() { err = wait(c, "MPI collective", "rank 0 waiting") })
	c.Drive()
	if err == nil || !strings.Contains(err.Error(), "rank 1: finalized") {
		t.Errorf("analyzer lines missing from report: %v", err)
	}
}

// TestDeadlockReportPanicEndsRun: a panic while the driver builds the
// deadlock report, in an analyzer or in a wait's detail, aborts the run
// with a QuarantineError at sched.drive, and every parked wait ends with
// that cause.
func TestDeadlockReportPanicEndsRun(t *testing.T) {
	boom := func() string { panic("planted report panic") }
	for name, arm := range map[string]func(c *Controller) (detail func() string){
		"analyzer": func(c *Controller) func() string {
			c.AddAnalyzer(func() []string { return []string{boom()} })
			return func() string { return "rank 0 waiting" }
		},
		"detail": func(*Controller) func() string { return boom },
	} {
		c := NewController(nil)
		detail := arm(c)
		var errs [2]error
		for i := range errs {
			c.Go(func() { errs[i] = c.Wait("MPI collective", detail) })
		}
		c.Drive()
		var qe *monitor.QuarantineError
		if !errors.As(c.Err(), &qe) || qe.Op != "sched.drive" || qe.Value != "planted report panic" {
			t.Errorf("%s: run ended with %v, want the panic quarantined at sched.drive", name, c.Err())
		}
		for i, err := range errs {
			if err != c.Err() {
				t.Errorf("%s: wait %d ended with %v, want the run's cause", name, i, err)
			}
		}
	}
}

// highestFirst picks the highest enabled id: under it threads park in
// the reverse of round-robin's order.
type highestFirst struct{}

func (highestFirst) Next(c Choice) ThreadID { return c.Enabled[len(c.Enabled)-1] }

// TestDeadlockReportIndependentOfParkOrder: the report text depends only
// on which waits are parked, not on the order the threads parked in nor
// on which thread holds which wait.
func TestDeadlockReportIndependentOfParkOrder(t *testing.T) {
	waits := [][2]string{
		{"team barrier", "team1.t1 waiting at barrier"},
		{"MPI collective", "rank 1: MPI_Bcast"},
		{"MPI collective", "rank 0: MPI_Barrier"},
		{"critical section", "team2.t0 waiting for critical(x)"},
	}
	report := func(s Scheduler, perm []int) string {
		c := NewController(s)
		c.AddAnalyzer(func() []string { return []string{"rank 2: finalized"} })
		var parked []ThreadID
		for _, k := range perm {
			c.Go(func() {
				// Threads yield a few times first, so the scheduler
				// decides the order they park in.
				g := c.Running()
				for line := 0; line < k+1; line++ {
					g.Yield(line)
				}
				parked = append(parked, g.ID())
				_ = c.Wait(waits[k][0], func() string { return waits[k][1] })
			})
		}
		c.Drive()
		if !errors.As(c.Err(), new(*monitor.DeadlockError)) {
			t.Fatalf("run error %v, want the deadlock report", c.Err())
		}
		t.Logf("parked in order %v", parked)
		return c.Err().Error()
	}
	want := report(NewRoundRobin(), []int{0, 1, 2, 3})
	for _, tc := range []struct {
		s    Scheduler
		perm []int
	}{
		{highestFirst{}, []int{0, 1, 2, 3}},
		{NewRoundRobin(), []int{3, 1, 0, 2}},
		{highestFirst{}, []int{2, 0, 3, 1}},
		{NewRandom(7), []int{1, 3, 2, 0}},
	} {
		if got := report(tc.s, tc.perm); got != want {
			t.Errorf("perm %v under %T: report\n%s\nwant\n%s", tc.perm, tc.s, got, want)
		}
	}
	if !strings.HasSuffix(want, "  team barrier: team1.t1 waiting at barrier\n  rank 2: finalized") {
		t.Errorf("report not sorted with the analyzer lines last:\n%s", want)
	}
}
