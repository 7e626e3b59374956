package leakcheck

import (
	"fmt"
	"iter"
	"runtime"
	"strings"
	"testing"

	"parcoach/internal/sched"
)

// goroutinesWith returns the stacks of the running goroutines that
// contain frame, keyed like interestingGoroutines.
func goroutinesWith(frame string) map[string]string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	out := make(map[string]string)
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, frame) {
			f := strings.Fields(g)
			out[f[0]+" "+f[1]] = g
		}
	}
	return out
}

// TestInterestingGoroutinesCoroutines: a suspended iter.Pull coroutine
// that nobody stopped is a leak, but an idle coroutine of the
// scheduler's pool is not.
func TestInterestingGoroutinesCoroutines(t *testing.T) {
	next, stop := iter.Pull(func(yield func(int) bool) {
		yield(1)
		yield(2)
	})
	defer stop()
	next()
	suspended := goroutinesWith("leakcheck.TestInterestingGoroutinesCoroutines.func1")
	if len(suspended) != 1 {
		t.Fatalf("found %d suspended test coroutines, want 1", len(suspended))
	}
	interesting := interestingGoroutines()
	for id := range suspended {
		if _, ok := interesting[id]; !ok {
			t.Errorf("suspended coroutine %s not listed as interesting", id)
		}
	}

	// One serialized thread leaves its coroutine idle in the pool.
	c := sched.NewController(sched.NewRoundRobin())
	c.Go(func() {})
	c.Drive()
	idle := goroutinesWith("sched.(*coro).idle")
	if len(idle) == 0 {
		t.Fatal("no idle pooled coroutine after a serialized run")
	}
	interesting = interestingGoroutines()
	for id, g := range idle {
		if _, ok := interesting[id]; ok {
			t.Errorf("idle pooled coroutine listed as interesting:\n%s", g)
		}
	}
}

// recordingTB runs a Check outside the testing harness: it keeps the
// cleanups Check registers, to run them on demand, and the errors they
// report.
type recordingTB struct {
	testing.TB
	cleanups []func()
	errs     []string
}

func (r *recordingTB) Helper()           {}
func (r *recordingTB) Cleanup(fn func()) { r.cleanups = append(r.cleanups, fn) }
func (r *recordingTB) Failed() bool      { return len(r.errs) > 0 }
func (r *recordingTB) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// finish runs the recorded cleanups last registered first, as the
// testing package does when a test ends.
func (r *recordingTB) finish() {
	for i := len(r.cleanups) - 1; i >= 0; i-- {
		r.cleanups[i]()
	}
}

// TestCheckReportsGoroutinesStartedAfterIt pins Check's contract: the
// snapshot is taken when Check is called, so a goroutine started after
// it and still parked when the cleanups run is reported, and once that
// goroutine is released a fresh Check reports nothing.
func TestCheckReportsGoroutinesStartedAfterIt(t *testing.T) {
	release := make(chan struct{})
	leaky := &recordingTB{TB: t}
	Check(leaky)
	go func() { <-release }()
	leaky.finish()
	if len(leaky.errs) != 1 || !strings.Contains(leaky.errs[0], "1 goroutine(s) leaked") ||
		!strings.Contains(leaky.errs[0], "TestCheckReportsGoroutinesStartedAfterIt") {
		t.Errorf("parked goroutine not reported: %q", leaky.errs)
	}

	close(release)
	clean := &recordingTB{TB: t}
	Check(clean)
	clean.finish()
	if len(clean.errs) != 0 {
		t.Errorf("released goroutine reported: %q", clean.errs)
	}
}
