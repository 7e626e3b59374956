package interp

import (
	"slices"
	"strings"
	"testing"
	"time"

	"parcoach/internal/leakcheck"
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

// sessionRacerSrc deadlocks only on a schedule that lets a team worker
// win the nowait single on one rank: that rank then skips the barrier
// its peer waits in. Round-robin runs it clean.
const sessionRacerSrc = `
func main() {
	MPI_Init()
	var winner = 0
	parallel num_threads(2) {
		single nowait { winner = tid() }
	}
	if winner == 0 {
		MPI_Barrier()
	}
	MPI_Finalize()
	return rank() + 1
}
`

// TestSessionAbandonsWedgedRun: a run that deadlocks must not block
// Session.Run or leave anything behind, which in a daemon's warm pool
// would leak the slot for good. One session runs the racer on a
// schedule that deadlocks, with no watchdog armed, then on one that
// completes: nothing leaks, and the completing run returns its own
// result.
func TestSessionAbandonsWedgedRun(t *testing.T) {
	leakcheck.Check(t)
	prog := parser.MustParse("racer.mh", sessionRacerSrc)
	sess := NewSession(prog, Options{Procs: 2, Threads: 2})

	res := runWithin(t, sess, sched.NewRandom(0))
	if got := res.Outcome(); got != OutcomeDeadlock {
		t.Fatalf("racer under rand:0 classified %s (err %v), want %s", got, res.Err, OutcomeDeadlock)
	}
	res = runWithin(t, sess, sched.NewRoundRobin())
	if res.Err != nil || !slices.Equal(res.ExitValues, []int64{1, 2}) {
		t.Fatalf("run after the deadlocked one: err %v, exit values %v; want [1 2]", res.Err, res.ExitValues)
	}
}

// TestSessionAbandonsWedgedSerializedRun: the rank-divergent barrier
// leaves rank 0 parked while rank 1 returns from main. With no watchdog
// armed, the driver must end the run at once as a deadlock, naming the
// wait and the finalized rank, under the default scheduler and an
// explicit one alike; nothing leaks, and the session's next run
// deadlocks the same way.
func TestSessionAbandonsWedgedSerializedRun(t *testing.T) {
	leakcheck.Check(t)
	prog := parser.MustParse("wedge.mh", guardedBarrierSrc)
	sess := NewSession(prog, Options{Procs: 2, Threads: 2})
	for _, mk := range []func() sched.Scheduler{
		func() sched.Scheduler { return nil },
		func() sched.Scheduler { return sched.NewRoundRobin() },
	} {
		first := runWithin(t, sess, mk())
		if got := first.Outcome(); got != OutcomeDeadlock {
			t.Fatalf("divergent-barrier run classified %s (err %v), want %s", got, first.Err, OutcomeDeadlock)
		}
		if msg := first.Err.Error(); !strings.Contains(msg, "MPI_Barrier") || !strings.Contains(msg, "rank 1: finalized") {
			t.Fatalf("deadlock report %q does not name the wait and the finalized rank", msg)
		}
		if next := runWithin(t, sess, mk()); next.Outcome() != OutcomeDeadlock || next.Err.Error() != first.Err.Error() {
			t.Fatalf("the next run ended %s (err %v), want the same deadlock", next.Outcome(), next.Err)
		}
	}
}
