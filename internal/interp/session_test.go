package interp

import (
	"testing"
	"time"

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

// TestSessionAbandonsWedgedRun: a run whose monitor never drains (here:
// a phantom live thread that never exits, standing in for a straggler
// goroutine wedged outside the monitor's control) must not block
// Session.Run forever — the pre-fix release waited on Drained()
// unconditionally, which in a daemon's warm pool permanently leaks the
// slot. The bounded wait must return the run's result, count the leak,
// and leave the session fully usable (fresh state, nothing recycled
// from the wedged run).
func TestSessionAbandonsWedgedRun(t *testing.T) {
	prog := parser.MustParse("wedge.mh", sessionSrc)
	sess := NewSession(prog, Options{Procs: 2, Threads: 2, DrainTimeout: 100 * time.Millisecond})

	testWedge = func(w *mpi.World) { w.Monitor().ThreadStarted() }
	defer func() { testWedge = nil }()

	done := make(chan *Result, 1)
	go func() { done <- sess.Run(nil) }()
	var res *Result
	select {
	case res = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Session.Run blocked past the drain timeout: wedged run not abandoned")
	}
	if res.Err != nil {
		t.Fatalf("wedged-drain run still completed its program; got err %v", res.Err)
	}
	if got := sess.Abandoned(); got != 1 {
		t.Fatalf("Abandoned() = %d, want 1", got)
	}

	// The abandoned world must never be reused: the next run builds
	// fresh state, completes, drains and recycles normally.
	testWedge = nil
	res2 := sess.Run(sched.NewRoundRobin())
	if res2.Err != nil {
		t.Fatalf("post-abandon run failed: %v", res2.Err)
	}
	if got := sess.Abandoned(); got != 1 {
		t.Fatalf("clean post-abandon run counted as a leak: Abandoned() = %d", got)
	}
}

// TestSessionAbandonsWedgedSerializedRun: a phantom live thread hides a
// serialized run's deadlock from the monitor, so every real thread
// parks and no thread holds the run token. The driver must wait for the
// watchdog rather than return with its threads suspended: the run ends
// as a timeout, and since the phantom never exits, the drain times out
// and the run is abandoned.
func TestSessionAbandonsWedgedSerializedRun(t *testing.T) {
	prog := parser.MustParse("wedge.mh", guardedBarrierSrc)
	sess := NewSession(prog, Options{Procs: 2, Threads: 2,
		WallTimeout: 50 * time.Millisecond, DrainTimeout: 100 * time.Millisecond})

	testWedge = func(w *mpi.World) { w.Monitor().ThreadStarted() }
	defer func() { testWedge = nil }()

	done := make(chan *Result, 1)
	go func() { done <- sess.Run(sched.NewRoundRobin()) }()
	var res *Result
	select {
	case res = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("wedged serialized run outlived its watchdog")
	}
	if got := res.Outcome(); got != OutcomeTimeout {
		t.Fatalf("wedged serialized run classified %s (err %v), want %s", got, res.Err, OutcomeTimeout)
	}
	if got := sess.Abandoned(); got != 1 {
		t.Fatalf("Abandoned() = %d, want 1", got)
	}

	testWedge = nil
	if got := sess.Run(sched.NewRoundRobin()).Outcome(); got != OutcomeDeadlock {
		t.Fatalf("unwedged run classified %s, want %s", got, OutcomeDeadlock)
	}
}

// TestSessionDrainTimeoutDefault: normal runs never hit the bound — a
// session with the default timeout behaves exactly as before.
func TestSessionDrainTimeoutDefault(t *testing.T) {
	prog := parser.MustParse("clean.mh", sessionSrc)
	sess := NewSession(prog, Options{Procs: 2, Threads: 2})
	if sess.opts.DrainTimeout != DefaultDrainTimeout {
		t.Fatalf("DrainTimeout normalized to %v, want %v", sess.opts.DrainTimeout, DefaultDrainTimeout)
	}
	for i := 0; i < 4; i++ {
		if res := sess.Run(sched.NewRoundRobin()); res.Err != nil {
			t.Fatalf("run %d: %v", i, res.Err)
		}
	}
	if got := sess.Abandoned(); got != 0 {
		t.Fatalf("clean runs counted as leaks: Abandoned() = %d", got)
	}
}
