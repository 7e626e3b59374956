package interp_test

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"parcoach/internal/explore"
	"parcoach/internal/interp"
	"parcoach/internal/leakcheck"
	"parcoach/internal/monitor"
	"parcoach/internal/parser"
	"parcoach/internal/sched"
)

// regionSrc is a 2×2 program with a parallel region and collectives
// whose output depends on the schedule: the nowait single's election
// and the order of the critical updates.
const regionSrc = `
func main() {
	MPI_Init()
	var x = rank()
	var winner = -1
	parallel num_threads(2) {
		single nowait { winner = tid() }
		critical { x = x * 3 + tid() + 1 }
		barrier
		var y = tid() + x
		atomic x += y
	}
	print(winner, x)
	MPI_Allreduce(x, x, sum)
	MPI_Bcast(winner, 0)
	print(winner, x)
	MPI_Finalize()
	return x
}
`

// lineOf returns the source line of the first occurrence of marker.
func lineOf(src, marker string) int {
	return 1 + strings.Count(src[:strings.Index(src, marker)], "\n")
}

// TestSerializedThreadPanicEndsRun: a panic on one thread ends its run,
// not the process or the coroutine pool. The run is quarantined as an
// internal error carrying the panicking thread's stack, every other
// thread unwinds, no goroutine leaks, and the session's next run is
// clean. Both a team worker inside the region and a rank's main thread
// after it are tried under the default schedule and two replay tokens,
// alone and through Explore.
func TestSerializedThreadPanicEndsRun(t *testing.T) {
	leakcheck.Check(t)
	prog := parser.MustParse("panic.mh", regionSrc)
	cases := []struct {
		name            string
		rank, tid, line int
	}{
		{"worker-in-region", 1, 1, lineOf(regionSrc, "var y")},
		{"main-after-region", 0, 0, lineOf(regionSrc, "MPI_Allreduce")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			panicAt := func(rank, tid, line int) {
				if rank == tc.rank && tid == tc.tid && line == tc.line {
					panic("planted panic")
				}
			}
			sess := interp.NewSession(prog, interp.Options{Procs: 2, Threads: 2})
			for _, token := range []string{"default", sched.RoundRobinToken, sched.RandomToken(7)} {
				var s sched.Scheduler
				if token != "default" {
					var err error
					if s, err = sched.Parse(token); err != nil {
						t.Fatal(err)
					}
				}
				reset := interp.SetTestStep(panicAt)
				res := sess.Run(s)
				reset()
				if got := res.Outcome(); got != interp.OutcomeInternalError {
					t.Fatalf("%s: panicking run classified %s (err %v), want %s", token, got, res.Err, interp.OutcomeInternalError)
				}
				var qe *interp.QuarantineError
				if !errors.As(res.Err, &qe) || qe.Value != "planted panic" {
					t.Fatalf("%s: error %v is not the quarantined panic", token, res.Err)
				}
				if !strings.Contains(string(qe.Stack), "(*thctx).step") {
					t.Fatalf("%s: quarantined stack is not the panicking thread's:\n%s", token, qe.Stack)
				}
				if res := sess.Run(nil); res.Err != nil {
					t.Fatalf("%s: the run after the panic failed: %v", token, res.Err)
				}
			}

			for _, strategy := range []explore.Strategy{explore.StrategyRandom, explore.StrategyDFS} {
				opts := explore.Options{Strategy: strategy, Schedules: 6, Seed: 5, Workers: 2}
				reset := interp.SetTestStep(panicAt)
				rep := explore.Explore(prog, opts)
				reset()
				v := rep.Verdict(interp.OutcomeInternalError)
				if v == nil || v.Count != rep.Schedules || rep.Quarantined != rep.Schedules {
					t.Fatalf("%s: every schedule hits the panic, yet:\n%s", strategy, rep)
				}
				if !strings.Contains(v.Sample, "panic quarantined at sched.thread: planted panic") {
					t.Fatalf("%s: verdict sample %q does not name the thread boundary", strategy, v.Sample)
				}
				clean := explore.Explore(prog, opts)
				if len(clean.Verdicts) != 1 || clean.Verdicts[0].Outcome != interp.OutcomeClean {
					t.Fatalf("%s: exploration after the panics is not clean:\n%s", strategy, clean)
				}
			}
		})
	}
}

// driverPanicker wraps a scheduler and panics on one of the picks the
// run's driver makes: the first decision (Seq 0, taken before any thread
// runs), or the pick after a thread returns, when the controller retires
// it.
type driverPanicker struct {
	sched.Scheduler
	atRetire bool
}

func (s *driverPanicker) Next(c sched.Choice) sched.ThreadID {
	if s.atRetire && strings.Contains(string(debug.Stack()), "(*Controller).retire") || !s.atRetire && c.Seq == 0 {
		panic("planted driver panic")
	}
	return s.Scheduler.Next(c)
}

// tracingDriverPanicker keeps a wrapped DPOR recorder's event trace.
type tracingDriverPanicker struct {
	*driverPanicker
	events *monitor.EventTrace
}

func (s tracingDriverPanicker) EventTrace() *monitor.EventTrace { return s.events }

// TestDriverPanicEndsRun: a panic raised on the driver side of a run
// (the scheduler's pick at the first decision or after a thread
// returns) ends that run as an internal error quarantined at
// sched.drive, not the caller: every thread unwinds, no goroutine
// leaks, and the session's next run is clean. Exploration counts such
// runs as quarantined, at random and DFS.
func TestDriverPanicEndsRun(t *testing.T) {
	leakcheck.Check(t)
	prog := parser.MustParse("panic.mh", regionSrc)
	for _, tc := range []struct {
		name     string
		atRetire bool
	}{
		{"first-decision", false},
		{"after-return", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sess := interp.NewSession(prog, interp.Options{Procs: 2, Threads: 2})
			for _, inner := range []sched.Scheduler{sched.NewRoundRobin(), sched.NewRandom(7)} {
				res := sess.Run(&driverPanicker{Scheduler: inner, atRetire: tc.atRetire})
				if got := res.Outcome(); got != interp.OutcomeInternalError {
					t.Fatalf("run with a panicking driver classified %s (err %v), want %s", got, res.Err, interp.OutcomeInternalError)
				}
				var qe *interp.QuarantineError
				if !errors.As(res.Err, &qe) || qe.Op != "sched.drive" || qe.Value != "planted driver panic" {
					t.Fatalf("error %v is not the panic quarantined at sched.drive", res.Err)
				}
				if res := sess.Run(nil); res.Err != nil {
					t.Fatalf("the run after the panic failed: %v", res.Err)
				}
			}

			wrap := func(s sched.Scheduler) sched.Scheduler {
				p := &driverPanicker{Scheduler: s, atRetire: tc.atRetire}
				if ts, ok := s.(sched.TraceSource); ok {
					return tracingDriverPanicker{p, ts.EventTrace()}
				}
				return p
			}
			for _, strategy := range []explore.Strategy{explore.StrategyRandom, explore.StrategyDFS} {
				opts := explore.Options{Strategy: strategy, Schedules: 6, Seed: 5, Workers: 2}
				reset := interp.SetTestScheduler(wrap)
				rep := explore.ExploreSession(sess, opts)
				reset()
				if rep.Schedules == 0 || rep.Quarantined != rep.Schedules {
					t.Fatalf("%s: every schedule panics on the driver, yet:\n%s", strategy, rep)
				}
				if v := rep.Verdict(interp.OutcomeInternalError); !strings.Contains(v.Sample, "panic quarantined at sched.drive: planted driver panic") {
					t.Fatalf("%s: verdict sample %q does not name the driver boundary", strategy, v.Sample)
				}
				clean := explore.ExploreSession(sess, opts)
				if len(clean.Verdicts) != 1 || clean.Verdicts[0].Outcome != interp.OutcomeClean {
					t.Fatalf("%s: exploration after the panics is not clean:\n%s", strategy, clean)
				}
			}
		})
	}
}

// TestConcurrentSerializedRunsMatchSolo: serialized runs on many
// goroutines at once share the process-wide coroutine pool, yet each
// result equals the same schedule run alone — error text, output and
// stats.
func TestConcurrentSerializedRunsMatchSolo(t *testing.T) {
	const goroutines, schedules = 8, 20
	prog := parser.MustParse("concurrent.mh", regionSrc)
	sess := interp.NewSession(prog, interp.Options{Procs: 2, Threads: 2})
	render := func(seed int64) string {
		res := sess.Run(sched.NewRandom(seed))
		errText := ""
		if res.Err != nil {
			errText = res.Err.Error()
		}
		return fmt.Sprintf("err=%q\n%s%+v", errText, res.Output, res.Stats)
	}
	solo := make(map[int64]string)
	outputs := make(map[string]bool)
	for g := 0; g < goroutines; g++ {
		for i := 0; i < schedules; i++ {
			seed := int64(g*schedules + i)
			solo[seed] = render(seed)
			outputs[solo[seed]] = true
		}
	}
	if len(outputs) < 2 {
		t.Fatal("every schedule printed the same run: the comparison would prove nothing")
	}
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*schedules)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < schedules; i++ {
				seed := int64(g*schedules + i)
				if got := render(seed); got != solo[seed] {
					errs <- fmt.Sprintf("rand:%d concurrently:\n%s\nalone:\n%s", seed, got, solo[seed])
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
