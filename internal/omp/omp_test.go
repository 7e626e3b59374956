package omp

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"parcoach/internal/monitor"
	"parcoach/internal/sched"
)

// start creates a runtime and its initial thread, whose controller
// serializes the run under the default schedule.
func start(t *testing.T, threads int, policy Policy) (*Runtime, *Thread) {
	t.Helper()
	rt := New(sched.NewController(nil), threads, policy)
	return rt, rt.InitialThread()
}

// parallel runs rt.Parallel(th0, n, body) on the run's first thread and
// drives the run until every thread has returned.
func parallel(rt *Runtime, th0 *Thread, n int, body func(*Thread) error) (err error) {
	rt.ctl.Go(func() { err = rt.Parallel(th0, n, body) })
	rt.ctl.Drive()
	return err
}

func TestParallelRunsAllThreads(t *testing.T) {
	rt, th0 := start(t, 4, FirstArrival)
	var mu sync.Mutex
	tids := map[int]bool{}
	err := parallel(rt, th0, 0, func(th *Thread) error {
		mu.Lock()
		tids[th.TID()] = true
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tids) != 4 {
		t.Errorf("want 4 distinct tids, got %v", tids)
	}
}

func TestParallelExplicitSize(t *testing.T) {
	rt, th0 := start(t, 2, FirstArrival)
	var n int32
	if err := parallel(rt, th0, 7, func(th *Thread) error {
		atomic.AddInt32(&n, 1)
		if th.Team().Size() != 7 {
			return errors.New("team size wrong")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 7 {
		t.Errorf("ran %d threads, want 7", n)
	}
}

func TestMasterKeepsThreadID(t *testing.T) {
	rt, th0 := start(t, 3, FirstArrival)
	mainID := th0.ID()
	err := parallel(rt, th0, 3, func(th *Thread) error {
		if th.TID() == 0 && th.ID() != mainID {
			return errors.New("master lost the main thread id")
		}
		if th.TID() != 0 && th.ID() == mainID {
			return errors.New("worker got the main thread id")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierAdvancesPhase(t *testing.T) {
	rt, th0 := start(t, 4, FirstArrival)
	err := parallel(rt, th0, 4, func(th *Thread) error {
		for i := 0; i < 5; i++ {
			if err := th.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	rt, th0 := start(t, 4, FirstArrival)
	var before, after int32
	err := parallel(rt, th0, 4, func(th *Thread) error {
		atomic.AddInt32(&before, 1)
		if err := th.Barrier(); err != nil {
			return err
		}
		// After the barrier every thread must observe all 4 increments.
		if atomic.LoadInt32(&before) != 4 {
			return errors.New("barrier did not synchronize")
		}
		atomic.AddInt32(&after, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if after != 4 {
		t.Errorf("after = %d", after)
	}
}

func TestSingleElectsExactlyOne(t *testing.T) {
	for _, policy := range []Policy{FirstArrival, RoundRobin} {
		rt, th0 := start(t, 4, policy)
		var execs int32
		err := parallel(rt, th0, 4, func(th *Thread) error {
			for i := 0; i < 10; i++ {
				if th.Single(42) {
					atomic.AddInt32(&execs, 1)
				}
				if err := th.Barrier(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if execs != 10 {
			t.Errorf("policy %v: single executed %d times, want 10", policy, execs)
		}
	}
}

func TestRoundRobinRotatesWinner(t *testing.T) {
	rt, th0 := start(t, 3, RoundRobin)
	var mu sync.Mutex
	var winners []int
	err := parallel(rt, th0, 3, func(th *Thread) error {
		for i := 0; i < 6; i++ {
			if th.Single(7) {
				mu.Lock()
				winners = append(winners, th.TID())
				mu.Unlock()
			}
			if err := th.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(winners)
	// Encounters 0..5 rotate over tids 0,1,2 twice.
	want := []int{0, 0, 1, 1, 2, 2}
	if len(winners) != len(want) {
		t.Fatalf("winners = %v", winners)
	}
	for i := range want {
		if winners[i] != want[i] {
			t.Fatalf("winners = %v, want rotation %v", winners, want)
		}
	}
}

func TestSingleOnTeamOfOne(t *testing.T) {
	_, th0 := start(t, 1, FirstArrival)
	if !th0.Single(3) {
		t.Error("single on a team of one must always execute")
	}
}

func TestSectionsDistribution(t *testing.T) {
	rt, th0 := start(t, 2, FirstArrival)
	var mu sync.Mutex
	ran := map[int]int{}
	err := parallel(rt, th0, 2, func(th *Thread) error {
		first, stride := th.Sections(9)
		for idx := first; idx < 5; idx += stride {
			mu.Lock()
			ran[idx]++
			mu.Unlock()
		}
		return th.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ran) != 5 {
		t.Fatalf("sections ran = %v, want all 5", ran)
	}
	for idx, n := range ran {
		if n != 1 {
			t.Errorf("section %d ran %d times", idx, n)
		}
	}
}

func TestStaticForCoversRangeOnce(t *testing.T) {
	rt, th0 := start(t, 4, FirstArrival)
	counts := make([]int32, 100)
	err := parallel(rt, th0, 4, func(th *Thread) error {
		loop := th.StaticFor(11, 0, 100)
		for {
			i, ok := loop.Next()
			if !ok {
				return nil
			}
			atomic.AddInt32(&counts[i], 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range counts {
		if n != 1 {
			t.Errorf("iteration %d executed %d times", i, n)
		}
	}
}

func TestDynamicForCoversRangeOnce(t *testing.T) {
	rt, th0 := start(t, 4, FirstArrival)
	counts := make([]int32, 100)
	err := parallel(rt, th0, 4, func(th *Thread) error {
		loop := th.DynamicFor(12, 0, 100)
		for {
			i, ok := loop.Next()
			if !ok {
				return th.Barrier()
			}
			atomic.AddInt32(&counts[i], 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range counts {
		if n != 1 {
			t.Errorf("iteration %d executed %d times", i, n)
		}
	}
}

func TestDynamicForRepeatedEncounters(t *testing.T) {
	rt, th0 := start(t, 3, FirstArrival)
	var total int32
	err := parallel(rt, th0, 3, func(th *Thread) error {
		for rep := 0; rep < 4; rep++ {
			loop := th.DynamicFor(13, 0, 10)
			for {
				_, ok := loop.Next()
				if !ok {
					break
				}
				atomic.AddInt32(&total, 1)
			}
			if err := th.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 40 {
		t.Errorf("total iterations = %d, want 40", total)
	}
}

func TestEmptyStaticFor(t *testing.T) {
	_, th0 := start(t, 1, FirstArrival)
	loop := th0.StaticFor(14, 5, 5)
	if _, ok := loop.Next(); ok {
		t.Error("empty range must yield nothing")
	}
}

func TestCriticalMutualExclusion(t *testing.T) {
	rt, th0 := start(t, 8, FirstArrival)
	var inside, maxInside int32
	var counter int64
	err := parallel(rt, th0, 8, func(th *Thread) error {
		for i := 0; i < 50; i++ {
			if err := rt.CriticalEnter(th, "lock"); err != nil {
				return err
			}
			v := atomic.AddInt32(&inside, 1)
			if v > atomic.LoadInt32(&maxInside) {
				atomic.StoreInt32(&maxInside, v)
			}
			counter++ // protected by the critical section
			atomic.AddInt32(&inside, -1)
			rt.CriticalExit(th, "lock")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if maxInside != 1 {
		t.Errorf("critical admitted %d threads at once", maxInside)
	}
	if counter != 400 {
		t.Errorf("counter = %d, want 400 (lost updates)", counter)
	}
}

func TestDifferentCriticalNamesDoNotExclude(t *testing.T) {
	rt, th0 := start(t, 2, FirstArrival)
	err := parallel(rt, th0, 2, func(th *Thread) error {
		name := "a"
		if th.TID() == 1 {
			name = "b"
		}
		if err := rt.CriticalEnter(th, name); err != nil {
			return err
		}
		// Both threads hold their (different) locks across a barrier: if
		// the names aliased, this would deadlock.
		if err := th.Barrier(); err != nil {
			return err
		}
		rt.CriticalExit(th, name)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNestedParallel(t *testing.T) {
	rt, th0 := start(t, 2, FirstArrival)
	var count int32
	err := parallel(rt, th0, 2, func(outer *Thread) error {
		return rt.Parallel(outer, 2, func(inner *Thread) error {
			atomic.AddInt32(&count, 1)
			if inner.Team().Level() != 2 {
				return errors.New("nesting level wrong")
			}
			return inner.Barrier()
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 4 {
		t.Errorf("nested parallel ran %d bodies, want 4", count)
	}
}

func TestBodyErrorAbortsTeam(t *testing.T) {
	rt, th0 := start(t, 4, FirstArrival)
	boom := errors.New("boom")
	err := parallel(rt, th0, 4, func(th *Thread) error {
		if th.TID() == 2 {
			return boom
		}
		// Everyone else parks at a barrier that thread 2 never reaches;
		// the abort must wake them.
		return th.Barrier()
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
}

func TestMismatchedBarriersDeadlockDetected(t *testing.T) {
	rt, th0 := start(t, 2, FirstArrival)
	err := parallel(rt, th0, 2, func(th *Thread) error {
		if th.TID() == 0 {
			return th.Barrier() // thread 1 never joins this barrier
		}
		return nil
	})
	var d *monitor.DeadlockError
	if !errors.As(err, &d) {
		t.Fatalf("want DeadlockError, got %v", err)
	}
}

func TestPolicyString(t *testing.T) {
	if FirstArrival.String() != "first-arrival" || RoundRobin.String() != "round-robin" {
		t.Error("policy names wrong")
	}
	for _, p := range []Policy{FirstArrival, RoundRobin} {
		if got, err := ParsePolicy(p.String()); got != p || err != nil {
			t.Errorf("ParsePolicy(%q) = %v, %v", p, got, err)
		}
	}
	if _, err := ParsePolicy(""); err == nil {
		t.Error("ParsePolicy accepted the empty name")
	}
}

func TestThreadString(t *testing.T) {
	_, th0 := start(t, 1, FirstArrival)
	if th0.String() == "" || th0.Team().ID() == 0 {
		t.Error("thread/team identity missing")
	}
}
