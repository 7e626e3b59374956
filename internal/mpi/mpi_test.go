package mpi

import (
	"errors"
	"strings"
	"testing"

	"parcoach/internal/monitor"
	"parcoach/internal/sched"
)

// newWorld returns a world whose next Run is serialized under the
// default schedule.
func newWorld(t *testing.T, n int, level ThreadLevel) *World {
	t.Helper()
	w, err := NewWorld(Config{Procs: n, Level: level})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// initAll runs body with Init/Finalize bracketing on every rank.
func runAll(t *testing.T, n int, body func(p *Proc) error) error {
	t.Helper()
	w := newWorld(t, n, ThreadMultiple)
	return w.Run(func(p *Proc) error {
		if err := p.Init(1); err != nil {
			return err
		}
		if err := body(p); err != nil {
			return err
		}
		return p.Finalize(1)
	})
}

func TestWorldValidation(t *testing.T) {
	if _, err := NewWorld(Config{Procs: 0}); err == nil {
		t.Error("0 procs must be rejected")
	}
}

func TestBarrierCompletes(t *testing.T) {
	err := runAll(t, 4, func(p *Proc) error {
		for i := 0; i < 10; i++ {
			if _, _, err := p.Collective(1, OpBarrier, RedSum, 0, 0, nil, ""); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("barriers failed: %v", err)
	}
}

func TestBcast(t *testing.T) {
	err := runAll(t, 4, func(p *Proc) error {
		contrib := int64(0)
		if p.Rank() == 2 {
			contrib = 99
		}
		v, _, err := p.Collective(1, OpBcast, RedSum, 2, contrib, nil, "")
		if err != nil {
			return err
		}
		if v != 99 {
			return errors.New("bcast value wrong")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceAndAllreduce(t *testing.T) {
	err := runAll(t, 4, func(p *Proc) error {
		v, _, err := p.Collective(1, OpReduce, RedSum, 0, int64(p.Rank()+1), nil, "")
		if err != nil {
			return err
		}
		if p.Rank() == 0 && v != 10 {
			return errors.New("reduce sum wrong")
		}
		v, _, err = p.Collective(1, OpAllreduce, RedMax, 0, int64(p.Rank()), nil, "")
		if err != nil {
			return err
		}
		if v != 3 {
			return errors.New("allreduce max wrong")
		}
		v, _, err = p.Collective(1, OpAllreduce, RedProd, 0, int64(p.Rank()+1), nil, "")
		if err != nil {
			return err
		}
		if v != 24 {
			return errors.New("allreduce prod wrong")
		}
		v, _, err = p.Collective(1, OpAllreduce, RedMin, 0, int64(p.Rank()+5), nil, "")
		if err != nil {
			return err
		}
		if v != 5 {
			return errors.New("allreduce min wrong")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScan(t *testing.T) {
	err := runAll(t, 4, func(p *Proc) error {
		v, _, err := p.Collective(1, OpScan, RedSum, 0, 1, nil, "")
		if err != nil {
			return err
		}
		if v != int64(p.Rank()+1) {
			return errors.New("scan prefix wrong")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherScatterAllgatherAlltoall(t *testing.T) {
	err := runAll(t, 3, func(p *Proc) error {
		r := int64(p.Rank())
		// Gather at root 1.
		_, vec, err := p.Collective(1, OpGather, RedSum, 1, r*10, nil, "")
		if err != nil {
			return err
		}
		if p.Rank() == 1 {
			if len(vec) != 3 || vec[0] != 0 || vec[1] != 10 || vec[2] != 20 {
				return errors.New("gather vector wrong")
			}
		} else if vec != nil {
			return errors.New("non-root got a gather vector")
		}
		// Allgather.
		_, vec, err = p.Collective(1, OpAllgather, RedSum, 0, r+1, nil, "")
		if err != nil {
			return err
		}
		if len(vec) != 3 || vec[0] != 1 || vec[1] != 2 || vec[2] != 3 {
			return errors.New("allgather wrong")
		}
		// Scatter from root 0.
		var src []int64
		if p.Rank() == 0 {
			src = []int64{7, 8, 9}
		}
		v, _, err := p.Collective(1, OpScatter, RedSum, 0, 0, src, "")
		if err != nil {
			return err
		}
		if v != 7+r {
			return errors.New("scatter value wrong")
		}
		// Alltoall: rank r sends r*10+j to rank j.
		contrib := []int64{r * 10, r*10 + 1, r*10 + 2}
		_, vec, err = p.Collective(1, OpAlltoall, RedSum, 0, 0, contrib, "")
		if err != nil {
			return err
		}
		for s := int64(0); s < 3; s++ {
			if vec[s] != s*10+r {
				return errors.New("alltoall wrong")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMismatchDetected(t *testing.T) {
	err := runAll(t, 2, func(p *Proc) error {
		if p.Rank() == 0 {
			_, _, err := p.Collective(1, OpBcast, RedSum, 0, 0, nil, "a.mh:3")
			return err
		}
		_, _, err := p.Collective(1, OpReduce, RedSum, 0, 0, nil, "a.mh:5")
		return err
	})
	var mm *MismatchError
	if !errors.As(err, &mm) {
		t.Fatalf("want MismatchError, got %v", err)
	}
	msg := mm.Error()
	if !strings.Contains(msg, "MPI_Bcast") || !strings.Contains(msg, "MPI_Reduce") || !strings.Contains(msg, "a.mh:3") {
		t.Errorf("mismatch message incomplete: %s", msg)
	}
}

func TestRootMismatchDetected(t *testing.T) {
	err := runAll(t, 2, func(p *Proc) error {
		_, _, err := p.Collective(1, OpBcast, RedSum, p.Rank(), 0, nil, "")
		return err
	})
	var mm *MismatchError
	if !errors.As(err, &mm) {
		t.Fatalf("want MismatchError for differing roots, got %v", err)
	}
}

func TestMissingCollectiveIsDeadlock(t *testing.T) {
	err := runAll(t, 2, func(p *Proc) error {
		if p.Rank() == 0 {
			_, _, err := p.Collective(1, OpBarrier, RedSum, 0, 0, nil, "x.mh:9")
			return err
		}
		return nil // rank 1 leaves without the barrier
	})
	var d *monitor.DeadlockError
	if !errors.As(err, &d) {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "MPI_Barrier") || !strings.Contains(msg, "finalized") {
		t.Errorf("deadlock report incomplete:\n%s", msg)
	}
}

func TestSendRecvRendezvous(t *testing.T) {
	err := runAll(t, 2, func(p *Proc) error {
		if p.Rank() == 0 {
			return p.Send(1, 42, 1, 7, "")
		}
		v, err := p.Recv(1, 0, 7, "")
		if err != nil {
			return err
		}
		if v != 42 {
			return errors.New("recv value wrong")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvTagMismatchDeadlocks(t *testing.T) {
	err := runAll(t, 2, func(p *Proc) error {
		if p.Rank() == 0 {
			return p.Send(1, 1, 1, 3, "")
		}
		_, err := p.Recv(1, 0, 4, "") // wrong tag
		return err
	})
	var d *monitor.DeadlockError
	if !errors.As(err, &d) {
		t.Fatalf("want DeadlockError on tag mismatch, got %v", err)
	}
}

func TestPingPong(t *testing.T) {
	const rounds = 50
	err := runAll(t, 2, func(p *Proc) error {
		for i := 0; i < rounds; i++ {
			if p.Rank() == 0 {
				if err := p.Send(1, int64(i), 1, 0, ""); err != nil {
					return err
				}
				v, err := p.Recv(1, 1, 0, "")
				if err != nil {
					return err
				}
				if v != int64(i) {
					return errors.New("pingpong payload wrong")
				}
			} else {
				v, err := p.Recv(1, 0, 0, "")
				if err != nil {
					return err
				}
				if err := p.Send(1, v, 0, 0, ""); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectiveBeforeInit(t *testing.T) {
	w := newWorld(t, 2, ThreadMultiple)
	err := w.Run(func(p *Proc) error {
		_, _, err := p.Collective(1, OpBarrier, RedSum, 0, 0, nil, "")
		return err
	})
	var ue *UsageError
	if !errors.As(err, &ue) {
		t.Fatalf("want UsageError, got %v", err)
	}
	if !strings.Contains(ue.Error(), "before MPI_Init") {
		t.Errorf("message = %v", ue)
	}
}

func TestCollectiveAfterFinalize(t *testing.T) {
	w := newWorld(t, 1, ThreadMultiple)
	err := w.Run(func(p *Proc) error {
		if err := p.Init(1); err != nil {
			return err
		}
		if err := p.Finalize(1); err != nil {
			return err
		}
		_, _, err := p.Collective(1, OpBarrier, RedSum, 0, 0, nil, "")
		return err
	})
	var ue *UsageError
	if !errors.As(err, &ue) || !strings.Contains(ue.Error(), "after MPI_Finalize") {
		t.Fatalf("want after-finalize UsageError, got %v", err)
	}
}

func TestDoubleInit(t *testing.T) {
	w := newWorld(t, 1, ThreadMultiple)
	err := w.Run(func(p *Proc) error {
		if err := p.Init(1); err != nil {
			return err
		}
		return p.Init(1)
	})
	if err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("want double-init error, got %v", err)
	}
}

func TestFunneledRejectsNonMainThread(t *testing.T) {
	w := newWorld(t, 1, ThreadFunneled)
	err := w.Run(func(p *Proc) error {
		if err := p.Init(1); err != nil {
			return err
		}
		_, _, err := p.Collective(2, OpBarrier, RedSum, 0, 0, nil, "") // thread 2 != main
		return err
	})
	var ue *UsageError
	if !errors.As(err, &ue) || !strings.Contains(ue.Error(), "non-main thread") {
		t.Fatalf("want funneled violation, got %v", err)
	}
}

func TestConcurrentCollectiveCallsSameRank(t *testing.T) {
	// Two threads of rank 0 both enter collectives while rank 1 calls a
	// barrier instead.
	w := newWorld(t, 2, ThreadMultiple)
	var second error
	err := w.Run(func(p *Proc) error {
		if err := p.Init(1); err != nil {
			return err
		}
		if p.Rank() == 0 {
			w.Controller().Go(func() {
				_, _, second = p.Collective(2, OpBcast, RedSum, 0, 0, nil, "")
			})
			_, _, err := p.Collective(3, OpReduce, RedSum, 0, 0, nil, "")
			return err
		}
		_, _, err := p.Collective(1, OpBarrier, RedSum, 0, 0, nil, "")
		return err
	})
	// Depending on arrival order the runtime sees either the overlapping
	// call from rank 0 (ConcurrentCallError) or a round where rank 0's
	// second op meets rank 1's barrier (MismatchError). Both are correct
	// detections of this schedule-dependent bug — which is exactly why
	// the paper validates it statically. The default schedule runs rank
	// 0's main until it parks in its reduce, then rank 1, whose barrier
	// completes the round: a mismatch, which the second thread, resumed
	// after the abort, also reports.
	var mm *MismatchError
	if !errors.As(err, &mm) {
		t.Fatalf("want MismatchError, got %v", err)
	}
	if second != err {
		t.Fatalf("the second thread of rank 0 saw %v, want the run's %v", second, err)
	}
}

// avoidFirst takes thread 0 at the first decision and afterwards any
// other enabled thread before it.
type avoidFirst struct{}

func (avoidFirst) Next(c sched.Choice) sched.ThreadID {
	if c.Seq > 0 {
		for _, id := range c.Enabled {
			if id != 0 {
				return id
			}
		}
	}
	return c.Enabled[0]
}

// TestOverlappingRoundsKeepResults: rank 0's main thread (thread 0)
// waits in round 0, rank 1's call completes that round and opens round
// 1, and rank 0's second thread (thread 2) joins and completes round 1
// before the woken main thread runs again. Each thread must still get
// its own round's result: a rank's result cannot live in a per-rank
// slot that the next round reuses.
func TestOverlappingRoundsKeepResults(t *testing.T) {
	w := newWorld(t, 2, ThreadMultiple)
	w.Reset(avoidFirst{})
	var main0, second0 int64
	var results1 []int64
	err := w.Run(func(p *Proc) error {
		if err := p.Init(1); err != nil {
			return err
		}
		if p.Rank() == 1 {
			for _, v := range []int64{10, 1000} {
				out, _, err := p.Collective(1, OpAllreduce, RedSum, 0, v, nil, "")
				if err != nil {
					return err
				}
				results1 = append(results1, out)
			}
			return nil
		}
		w.Controller().Go(func() {
			out, _, err := p.Collective(2, OpAllreduce, RedSum, 0, 100, nil, "")
			if err != nil {
				t.Errorf("second thread: %v", err)
			}
			second0 = out
		})
		out, _, err := p.Collective(1, OpAllreduce, RedSum, 0, 1, nil, "")
		main0 = out
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if main0 != 11 || second0 != 1100 {
		t.Errorf("rank 0: main thread got %d, want 11; second thread got %d, want 1100", main0, second0)
	}
	if len(results1) != 2 || results1[0] != 11 || results1[1] != 1100 {
		t.Errorf("rank 1 got %v, want [11 1100]", results1)
	}
}

func TestInvalidRootAborts(t *testing.T) {
	err := runAll(t, 2, func(p *Proc) error {
		_, _, err := p.Collective(1, OpBcast, RedSum, 5, 0, nil, "")
		return err
	})
	var ue *UsageError
	if !errors.As(err, &ue) || !strings.Contains(ue.Error(), "out of range") {
		t.Fatalf("want root range error, got %v", err)
	}
}

func TestInvalidRedOpAborts(t *testing.T) {
	// Regression: an out-of-range reduction op used to fall through
	// RedOp.apply and silently reduce as sum; it must abort the world with
	// a diagnostic at collective entry instead.
	err := runAll(t, 2, func(p *Proc) error {
		_, _, err := p.Collective(1, OpAllreduce, RedOp(99), 0, int64(p.Rank()+1), nil, "")
		return err
	})
	var ue *UsageError
	if !errors.As(err, &ue) || !strings.Contains(ue.Error(), "out of range") {
		t.Fatalf("want reduction-op range error, got %v", err)
	}
}

func TestRedOpApplyPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Apply on an unvalidated op must panic, not silently sum")
		}
	}()
	RedOp(99).Apply(1, 2)
}

func TestRoundObserverSeesCallsAndResults(t *testing.T) {
	w := newWorld(t, 3, ThreadMultiple)
	type seen struct {
		round int
		calls []CollCall
	}
	var rounds []seen
	w.SetRoundObserver(func(round int, calls []*CollCall) error {
		// The records are recycled once their callers return: keep
		// copies.
		cp := make([]CollCall, len(calls))
		for i, c := range calls {
			cp[i] = *c
		}
		rounds = append(rounds, seen{round, cp})
		return nil
	})
	err := w.Run(func(p *Proc) error {
		if err := p.Init(1); err != nil {
			return err
		}
		if _, _, err := p.Collective(1, OpAllreduce, RedSum, 0, int64(p.Rank()+1), nil, "here"); err != nil {
			return err
		}
		return p.Finalize(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	var red *seen
	for i := range rounds {
		if len(rounds[i].calls) > 0 && rounds[i].calls[0].Op == OpAllreduce {
			red = &rounds[i]
		}
	}
	if red == nil {
		t.Fatal("observer never saw the allreduce round")
	}
	for r, c := range red.calls {
		if c.Rank != r || c.Value != int64(r+1) || c.OutValue != 6 || c.Loc != "here" {
			t.Fatalf("call %d observed wrong: %+v", r, c)
		}
	}
}

func TestRoundObserverErrorAbortsWorld(t *testing.T) {
	w := newWorld(t, 2, ThreadMultiple)
	boom := errors.New("oracle says no")
	w.SetRoundObserver(func(round int, calls []*CollCall) error {
		if len(calls) > 0 && calls[0].Op == OpAllreduce {
			return boom
		}
		return nil
	})
	err := w.Run(func(p *Proc) error {
		if err := p.Init(1); err != nil {
			return err
		}
		_, _, err := p.Collective(1, OpAllreduce, RedSum, 0, 1, nil, "")
		return err
	})
	if !errors.Is(err, boom) {
		t.Fatalf("observer error must abort the world, got %v", err)
	}
}

func TestRoundObserverSurvivesReset(t *testing.T) {
	w := newWorld(t, 2, ThreadMultiple)
	var fired int
	w.SetRoundObserver(func(round int, calls []*CollCall) error {
		fired++
		return nil
	})
	body := func(p *Proc) error {
		if err := p.Init(1); err != nil {
			return err
		}
		if _, _, err := p.Collective(1, OpBarrier, RedSum, 0, 0, nil, ""); err != nil {
			return err
		}
		return p.Finalize(1)
	}
	if err := w.Run(body); err != nil {
		t.Fatal(err)
	}
	first := fired
	if first == 0 {
		t.Fatal("observer never fired")
	}
	w.Reset(nil)
	if err := w.Run(body); err != nil {
		t.Fatal(err)
	}
	if fired <= first {
		t.Error("observer must survive Reset for pooled session reuse")
	}
}

func TestParseRedOp(t *testing.T) {
	for name, want := range map[string]RedOp{"": RedSum, "sum": RedSum, "min": RedMin, "max": RedMax, "prod": RedProd} {
		got, err := ParseRedOp(name)
		if err != nil || got != want {
			t.Errorf("ParseRedOp(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseRedOp("xor"); err == nil {
		t.Error("unknown op must error")
	}
}

func TestOpAndLevelStrings(t *testing.T) {
	if OpAllreduce.String() != "MPI_Allreduce" || ThreadSerialized.String() != "MPI_THREAD_SERIALIZED" {
		t.Error("string names wrong")
	}
	if RedMax.String() != "max" {
		t.Error("redop name wrong")
	}
	for name, want := range map[string]ThreadLevel{
		"single": ThreadSingle, "funneled": ThreadFunneled,
		"serialized": ThreadSerialized, "multiple": ThreadMultiple,
	} {
		if got, err := ParseThreadLevel(name); got != want || err != nil {
			t.Errorf("ParseThreadLevel(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseThreadLevel("MPI_THREAD_SINGLE"); err == nil {
		t.Error("ParseThreadLevel accepted a constant name")
	}
	if ThreadLevel(0).String() != "MPI_THREAD_?" {
		t.Error("the unset level has a name")
	}
}

func TestManyRanksStress(t *testing.T) {
	err := runAll(t, 16, func(p *Proc) error {
		total := int64(0)
		for i := 0; i < 20; i++ {
			v, _, err := p.Collective(1, OpAllreduce, RedSum, 0, 1, nil, "")
			if err != nil {
				return err
			}
			total += v
		}
		if total != 16*20 {
			return errors.New("stress total wrong")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
