package verifier

import (
	"errors"
	"strings"
	"testing"

	"parcoach/internal/mpi"
	"parcoach/internal/omp"
	"parcoach/internal/source"
)

// world spins up an MPI world with n ranks and a verifier; its next run
// is serialized under the default schedule.
func world(t *testing.T, n int) (*mpi.World, *Verifier) {
	t.Helper()
	w, err := mpi.NewWorld(mpi.Config{Procs: n, Level: mpi.ThreadMultiple})
	if err != nil {
		t.Fatal(err)
	}
	return w, New(w.Controller(), n)
}

func pos(line int) source.Pos { return source.Pos{File: "v.mh", Line: line, Col: 1} }

func TestCCAgreementCompletes(t *testing.T) {
	w, v := world(t, 3)
	err := w.Run(func(p *mpi.Proc) error {
		if err := p.Init(1); err != nil {
			return err
		}
		for round := 0; round < 5; round++ {
			if err := v.CC(p, "MPI_Allreduce", pos(round)); err != nil {
				return err
			}
		}
		return p.Finalize(1)
	})
	if err != nil {
		t.Fatalf("agreeing CC rounds must pass: %v", err)
	}
	cc, _, _ := v.Stats()
	if cc != 15 {
		t.Errorf("ccChecks = %d, want 15", cc)
	}
}

func TestCCDisagreementAborts(t *testing.T) {
	w, v := world(t, 2)
	err := w.Run(func(p *mpi.Proc) error {
		if err := p.Init(1); err != nil {
			return err
		}
		op := "MPI_Bcast"
		if p.Rank() == 1 {
			op = "MPI_Reduce"
		}
		return v.CC(p, op, pos(10+p.Rank()))
	})
	var ve *Error
	if !errors.As(err, &ve) || ve.Kind != ErrCollectiveMismatch {
		t.Fatalf("want collective-mismatch, got %v", err)
	}
	msg := ve.Error()
	for _, want := range []string{"MPI_Bcast", "MPI_Reduce", "v.mh:10", "v.mh:11"} {
		if !strings.Contains(msg, want) {
			t.Errorf("message missing %q: %s", want, msg)
		}
	}
}

func TestCCSkipsFinalizedProcess(t *testing.T) {
	w, v := world(t, 1)
	err := w.Run(func(p *mpi.Proc) error {
		if err := p.Init(1); err != nil {
			return err
		}
		if err := p.Finalize(1); err != nil {
			return err
		}
		// End-of-main check after finalize: must be a no-op.
		return v.CC(p, "return:main", pos(1))
	})
	if err != nil {
		t.Fatalf("post-finalize CC must be skipped: %v", err)
	}
	cc, _, _ := v.Stats()
	if cc != 0 {
		t.Errorf("skipped CC still counted: %d", cc)
	}
}

func TestCCDuplicateEntrySameRank(t *testing.T) {
	w, v := world(t, 2)
	err := w.Run(func(p *mpi.Proc) error {
		if err := p.Init(1); err != nil {
			return err
		}
		if p.Rank() == 0 {
			// Two threads of rank 0 enter CC concurrently: the second
			// entry must be flagged (collectives issued concurrently).
			w.Controller().Go(func() { _ = v.CC(p, "MPI_Bcast", pos(2)) })
			return v.CC(p, "MPI_Reduce", pos(3))
		}
		// Rank 1 never participates so rank 0's first CC blocks.
		return nil
	})
	// The default schedule parks rank 0's main thread in its CC for
	// MPI_Reduce, lets rank 1 return, then runs the second thread.
	var ve *Error
	if !errors.As(err, &ve) || ve.Kind != ErrConcurrentCollectives {
		t.Fatalf("want concurrent-collectives, got %v", err)
	}
	if want := "rank 0 entered CC for MPI_Bcast while its CC for MPI_Reduce is still pending"; !strings.Contains(ve.Msg, want) {
		t.Errorf("message %q lacks %q", ve.Msg, want)
	}
	if ve.Pos != pos(2) || len(ve.Related) != 1 || ve.Related[0] != pos(3) {
		t.Errorf("error at %v with related %v, want at %v with the pending announcement's %v", ve.Pos, ve.Related, pos(2), pos(3))
	}
}

// phaseEnv builds a single-process world with a thread team for phase
// counting tests.
func phaseEnv(t *testing.T) (*mpi.World, *Verifier, *omp.Runtime) {
	t.Helper()
	w, v := world(t, 1)
	rt := omp.New(w.Controller(), 2, omp.RoundRobin)
	return w, v, rt
}

func TestPhaseCountSameThreadOrdered(t *testing.T) {
	w, v, rt := phaseEnv(t)
	err := w.Run(func(p *mpi.Proc) error {
		th := rt.InitialThread()
		// One thread executing two different collectives in one phase is
		// ordered by program order: no error.
		if err := v.PhaseCount(p, th, 1, "MPI_Bcast", pos(1)); err != nil {
			return err
		}
		return v.PhaseCount(p, th, 2, "MPI_Reduce", pos(2))
	})
	if err != nil {
		t.Fatalf("same-thread executions must pass: %v", err)
	}
}

func TestPhaseCountSameNodeTwoThreads(t *testing.T) {
	w, v, rt := phaseEnv(t)
	err := w.Run(func(p *mpi.Proc) error {
		return rt.Parallel(rt.InitialThread(), 2, func(th *omp.Thread) error {
			return v.PhaseCount(p, th, 7, "MPI_Barrier", pos(4))
		})
	})
	var ve *Error
	if !errors.As(err, &ve) || ve.Kind != ErrMultithreadedCollective {
		t.Fatalf("want multithreaded-collective, got %v", err)
	}
}

func TestPhaseCountDifferentNodesTwoThreads(t *testing.T) {
	w, v, rt := phaseEnv(t)
	err := w.Run(func(p *mpi.Proc) error {
		return rt.Parallel(rt.InitialThread(), 2, func(th *omp.Thread) error {
			node := 10 + th.TID() // different collective per thread
			return v.PhaseCount(p, th, node, "MPI_Bcast", pos(5+th.TID()))
		})
	})
	var ve *Error
	if !errors.As(err, &ve) || ve.Kind != ErrConcurrentCollectives {
		t.Fatalf("want concurrent-collectives, got %v", err)
	}
}

func TestPhaseCountSeparatedByBarrier(t *testing.T) {
	w, v, rt := phaseEnv(t)
	err := w.Run(func(p *mpi.Proc) error {
		return rt.Parallel(rt.InitialThread(), 2, func(th *omp.Thread) error {
			// Thread 0 counts in phase 0; thread 1 counts in phase 1:
			// different phases, no conflict.
			if th.TID() == 0 {
				if err := v.PhaseCount(p, th, 20, "MPI_Bcast", pos(6)); err != nil {
					return err
				}
			}
			if err := th.Barrier(); err != nil {
				return err
			}
			if th.TID() == 1 {
				return v.PhaseCount(p, th, 21, "MPI_Reduce", pos(7))
			}
			return nil
		})
	})
	if err != nil {
		t.Fatalf("barrier-separated executions must pass: %v", err)
	}
}

// TestEndTeamDropsPhaseCounts: a team holds only the counts of its
// current phase while it runs, and none once it has ended.
func TestEndTeamDropsPhaseCounts(t *testing.T) {
	w, v, rt := phaseEnv(t)
	err := w.Run(func(p *mpi.Proc) error {
		var team int64
		err := rt.Parallel(rt.InitialThread(), 2, func(th *omp.Thread) error {
			team = th.Team().ID()
			for phase := 0; phase < 3; phase++ {
				if th.TID() == 0 {
					if err := v.PhaseCount(p, th, 20, "MPI_Bcast", pos(6)); err != nil {
						return err
					}
				}
				if err := th.Barrier(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		key := teamKey{proc: p.Rank(), team: team}
		if tp := v.phases[key]; len(v.phases) != 1 || tp == nil || tp.phase != 2 || len(tp.entries) != 1 {
			t.Errorf("phase counts after three phases: %d teams, %+v; want the one entry of phase 2", len(v.phases), tp)
		}
		v.EndTeam(p, team)
		if len(v.phases) != 0 {
			t.Errorf("ended team kept its phase counts: %+v", v.phases)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestErrorRendering(t *testing.T) {
	e := &Error{Kind: ErrConcurrentCollectives, Msg: "boom", Pos: pos(3)}
	s := e.Error()
	if !strings.Contains(s, "concurrent-collectives") || !strings.Contains(s, "v.mh:3") {
		t.Errorf("rendering = %q", s)
	}
	for _, k := range []ErrKind{ErrCollectiveMismatch, ErrMultithreadedCollective, ErrConcurrentCollectives} {
		if k.String() == "" || k.String() == "verifier-error" {
			t.Errorf("kind %d must have a name", k)
		}
	}
}
