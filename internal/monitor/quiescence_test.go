package monitor_test

import (
	"errors"
	"strings"
	"testing"

	"parcoach/internal/monitor"
	"parcoach/internal/sched"
)

// The deadlock oracle lives in the controller: these tests run their
// threads on a real sched.Controller, which finds the deadlock when
// threads remain but none can run, and check the report the monitor
// builds for it.

// runThreads runs each fn as a thread of one run, serialized in
// round-robin order by a real controller, and drives the run until
// every thread has returned.
func runThreads(m *monitor.Monitor, fns ...func()) {
	c := sched.NewController(sched.NewRoundRobin())
	m.SetSched(c)
	for _, fn := range fns {
		m.Go(fn)
	}
	m.Drive()
	c.Recycle()
}

// park registers the calling thread as blocked and returns the waiter
// it must Await.
func park(m *monitor.Monitor, reason, detail string) *monitor.Waiter {
	return m.NewWaiter(reason, func() string { return detail })
}

// TestQuiescenceDetectsAllBlocked: the last thread to park completes
// the deadlock, and every wait ends with the report.
func TestQuiescenceDetectsAllBlocked(t *testing.T) {
	m := monitor.New()
	errs := make([]error, 2)
	runThreads(m,
		func() { errs[0] = park(m, "test wait", "thread blocked forever").Await() },
		func() { errs[1] = park(m, "test wait", "thread blocked forever").Await() },
	)
	for i, err := range errs {
		var d *monitor.DeadlockError
		if !errors.As(err, &d) {
			t.Fatalf("thread %d: want DeadlockError, got %v", i, err)
		}
		if !strings.Contains(d.Error(), "thread blocked forever") {
			t.Errorf("report must include waiter details: %v", d)
		}
	}
	if !monitor.IsDeadlock(m.Err()) {
		t.Errorf("run error %v, want the deadlock report", m.Err())
	}
}

// TestQuiescenceOnThreadExit: a thread returning while every other one
// waits is a deadlock (a process returning from main while its peers
// wait in a collective), found once the thread has returned.
func TestQuiescenceOnThreadExit(t *testing.T) {
	m := monitor.New()
	var err error
	abortedAtExit := true
	runThreads(m,
		func() { err = park(m, "MPI collective", "rank 0: MPI_Barrier").Await() },
		// The second thread returns without ever waking the first.
		func() { abortedAtExit = m.Aborted() },
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
	m := monitor.New()
	var w *monitor.Waiter
	var err error
	runThreads(m,
		func() {
			w = park(m, "test", "one blocked")
			err = w.Await()
		},
		func() {
			if m.Aborted() {
				t.Error("false quiescence")
			}
			m.Wake(w)
		},
	)
	if err != nil || m.Err() != nil {
		t.Errorf("Await = %v, run error %v; want both nil", err, m.Err())
	}
}

func TestAllThreadsExitedIsNotDeadlock(t *testing.T) {
	m := monitor.New()
	runThreads(m, func() {})
	if m.Aborted() {
		t.Errorf("clean exit treated as deadlock: %v", m.Err())
	}
}

func TestAnalyzerContributesToReport(t *testing.T) {
	m := monitor.New()
	m.AddAnalyzer(func() []string { return []string{"rank 1: finalized"} })
	var err error
	runThreads(m, func() { err = park(m, "MPI collective", "rank 0 waiting").Await() })
	if err == nil || !strings.Contains(err.Error(), "rank 1: finalized") {
		t.Errorf("analyzer lines missing from report: %v", err)
	}
}
