// Package leakcheck asserts that a test leaves no goroutines behind. It
// snapshots the running goroutines at registration and diffs against a
// fresh snapshot at cleanup, retrying with backoff to let legitimately
// finishing goroutines drain first. Built on runtime.Stack only — no
// dependencies — and tolerant of the process-lifetime goroutines the
// runtime, the testing harness, and this repo's own pooled machinery
// (the scheduler's idle coroutines park until the pool stops them) keep
// around.
package leakcheck

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// allowlist matches goroutines that are allowed to outlive a test:
// runtime and testing infrastructure, signal handling, and the repo's
// own deliberately process-lifetime pools.
var allowlist = []string{
	"testing.(*T).Run",
	"testing.Main(",
	"testing.tRunner(",
	"testing.runTests",
	"testing.(*M).",
	"runtime.goexit",
	"runtime.gc",
	"runtime.MHeap_Scavenger",
	"signal.signal_recv",
	"signal.loop",
	"runtime.ensureSigM",
	"created by runtime",
	"interestingGoroutines",
	"os/signal.NotifyContext",
	// The serialized scheduler's idle pooled coroutines: only the pool's
	// idle loop carries this frame, so a coroutine suspended anywhere
	// else (a thread that never finished) still counts as a leak.
	"parcoach/internal/sched.(*coro).idle",
}

func interestingGoroutines() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	gs := make(map[string]string)
next:
	for _, g := range strings.Split(string(buf), "\n\n") {
		g = strings.TrimSpace(g)
		if g == "" {
			continue
		}
		for _, allow := range allowlist {
			if strings.Contains(g, allow) {
				continue next
			}
		}
		// Key by the header line ("goroutine N [state]:") stripped of the
		// volatile state word, so the same goroutine moving between states
		// doesn't read as a new one.
		head, _, _ := strings.Cut(g, "\n")
		f := strings.Fields(head)
		gs[f[0]+" "+f[1]] = g
	}
	return gs
}

// Check registers a cleanup on t that fails the test if goroutines
// started during the test are still alive at teardown. Call it first
// thing in the test (cleanups run LIFO, so it snapshots before the
// test's own setup and diffs after the test's own cleanups ran).
func Check(t testing.TB) {
	t.Helper()
	before := interestingGoroutines()
	t.Cleanup(func() {
		if t.Failed() {
			return // don't pile a leak report onto a real failure
		}
		var leaked []string
		// Legitimate goroutines may still be winding down when the test
		// body returns; retry with backoff before declaring a leak.
		deadline := time.Now().Add(2 * time.Second)
		for {
			leaked = leaked[:0]
			after := interestingGoroutines()
			for id, g := range after {
				if _, ok := before[id]; !ok {
					leaked = append(leaked, g)
				}
			}
			if len(leaked) == 0 || time.Now().After(deadline) {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		if len(leaked) > 0 {
			t.Errorf("leakcheck: %d goroutine(s) leaked:\n%s",
				len(leaked), strings.Join(leaked, "\n\n"))
		}
	})
}
