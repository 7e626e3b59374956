package interp

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"parcoach/internal/leakcheck"
	"parcoach/internal/mpi"
	"parcoach/internal/parser"
	"parcoach/internal/sched"
)

const sessionSrc = `
func main() {
	MPI_Init()
	var x = rank()
	MPI_Allreduce(x, x, sum)
	MPI_Finalize()
	return x
}
`

// runWithin runs sess under s and fails the test if the run has not
// returned within a few seconds, so a driver that stalls fails the test
// rather than hanging the suite.
func runWithin(t *testing.T, sess *Session, s sched.Scheduler) *Result {
	t.Helper()
	done := make(chan *Result, 1)
	go func() { done <- sess.Run(s) }()
	select {
	case res := <-done:
		return res
	case <-time.After(5 * time.Second):
		t.Fatal("Session.Run did not return: the driver stalled on the wedged run")
		return nil
	}
}

// TestSessionAbandonsWedgedRun: a run whose monitor never drains (here:
// a phantom live thread that never exits, standing in for a thread
// wedged outside the scheduler's control) must not block Session.Run,
// which in a daemon's warm pool would leak the slot for good. The
// driver returns once every real thread's coroutine has, so the default
// run hands back its result at once with no drain wait; nothing leaks,
// and the session's next run builds fresh state and completes.
func TestSessionAbandonsWedgedRun(t *testing.T) {
	leakcheck.Check(t)
	prog := parser.MustParse("wedge.mh", sessionSrc)
	sess := NewSession(prog, Options{Procs: 2, Threads: 2})

	testWedge = func(w *mpi.World) { w.Monitor().ThreadStarted() }
	res := runWithin(t, sess, nil)
	testWedge = nil
	if res.Err != nil || !slices.Equal(res.ExitValues, []int64{1, 1}) {
		t.Fatalf("wedged-drain run: err %v, exit values %v; want the program's own result [1 1]", res.Err, res.ExitValues)
	}
	res = runWithin(t, sess, nil)
	if res.Err != nil || !slices.Equal(res.ExitValues, []int64{1, 1}) {
		t.Fatalf("run after the wedged one: err %v, exit values %v; want [1 1]", res.Err, res.ExitValues)
	}
}

// TestSessionAbandonsWedgedSerializedRun: a phantom live thread, one
// the monitor counts but no gate runs, hides the rank-divergent
// barrier's deadlock from the monitor, so every real thread parks while
// the run still counts a live one. With no watchdog armed, the driver
// must end the run at once, under the default scheduler and an explicit
// one alike, as an internal error that names the counts; nothing leaks,
// and the session's next run takes its normal course.
func TestSessionAbandonsWedgedSerializedRun(t *testing.T) {
	leakcheck.Check(t)
	prog := parser.MustParse("wedge.mh", guardedBarrierSrc)
	sess := NewSession(prog, Options{Procs: 2, Threads: 2})
	for _, mk := range []func() sched.Scheduler{
		func() sched.Scheduler { return nil },
		func() sched.Scheduler { return sched.NewRoundRobin() },
	} {
		testWedge = func(w *mpi.World) { w.Monitor().ThreadStarted() }
		res := runWithin(t, sess, mk())
		testWedge = nil
		if got := res.Outcome(); got != OutcomeInternalError {
			t.Fatalf("phantom-thread run classified %s (err %v), want %s", got, res.Err, OutcomeInternalError)
		}
		var qe *QuarantineError
		if !errors.As(res.Err, &qe) || qe.Op != "sched.drive" ||
			!strings.Contains(res.Err.Error(), "2 live threads, 1 parked, none runnable") {
			t.Fatalf("phantom-thread run error %v does not name the stalled driver and its counts", res.Err)
		}
		if got := runWithin(t, sess, mk()).Outcome(); got != OutcomeDeadlock {
			t.Fatalf("the run after the phantom classified %s, want %s", got, OutcomeDeadlock)
		}
	}
}
