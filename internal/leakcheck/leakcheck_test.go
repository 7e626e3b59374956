package leakcheck

import (
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
	c.Drive(nil, nil)
	c.Recycle()
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
