package interp

import (
	"testing"

	"parcoach/internal/ast"
	"parcoach/internal/parser"
	"parcoach/internal/sched"
)

// The scheduler conformance suite: every scheduler that can drive the
// interpreter, the default one included, must (a) be deterministic — the same
// configuration reproduces a byte-identical run — and (b) honor its
// fairness contract: under the online schedulers no enabled thread is
// starved beyond the scheduler's bound, demonstrated by a spinner
// program that can only terminate if the non-spinning thread gets
// scheduled. The replay scheduler is the deliberate exception: its
// lowest-id default starves by design (it is the DFS exploration
// driver, which enumerates the starving schedule like any other), which
// the table locks in as a budget-exhausted outcome.

// spinnerSrc terminates only if thread 1 runs while thread 0 spins.
const spinnerSrc = `
func main() {
	MPI_Init()
	var done = 0
	parallel num_threads(2) {
		if tid() == 0 {
			while done == 0 {
			}
		} else {
			done = 1
		}
	}
	MPI_Finalize()
}
`

// electionSrc's output depends on the schedule (nowait-single election),
// making it the determinism subject: a deterministic scheduler must
// reproduce the same election, and thus the same bytes, every time.
const electionSrc = `
func main() {
	MPI_Init()
	var winner = 0
	parallel num_threads(2) {
		single nowait { winner = tid() }
	}
	print(winner)
	MPI_Allreduce(winner, winner, sum)
	MPI_Finalize()
	return winner
}
`

// guardedBarrierSrc deadlocks under every schedule (rank divergence).
const guardedBarrierSrc = `
func main() {
	MPI_Init()
	if rank() == 0 {
		MPI_Barrier()
	}
	MPI_Finalize()
}
`

var schedulerTable = []struct {
	name string
	mk   func() sched.Scheduler
	// fairSteps is the step budget within which the spinner must
	// terminate — the starvation bound. 0 marks a scheduler that is
	// allowed to starve (the replay driver), asserted as OutcomeBudget.
	fairSteps int64
}{
	// The default scheduler (a nil Scheduler) keeps the running thread
	// for a quantum of decisions: the spinner completes within a few
	// quanta.
	{"default", func() sched.Scheduler { return nil }, 300},
	// Round-robin's bound is one team rotation: the spinner completes in
	// a few dozen statements.
	{"round-robin", func() sched.Scheduler { return sched.NewRoundRobin() }, 500},
	// Random picks each enabled thread with probability 1/|enabled|;
	// the fixed seed makes the (tiny) completion time reproducible.
	{"random", func() sched.Scheduler { return sched.NewRandom(1) }, 10_000},
	// PCT may let the spinner's priority dominate until a priority
	// change point (sampled below seq 4096) demotes it; the bound is the
	// change-point horizon.
	{"pct", func() sched.Scheduler { return sched.NewPCT(1, 3, 0) }, 100_000},
	// Replay with an empty trace = the DFS default policy (lowest
	// enabled id): it runs the spinner forever — that schedule exists
	// and the exploration engine must be able to enumerate it.
	{"replay-default", func() sched.Scheduler { return &sched.Recorder{} }, 0},
}

func mustParse(t *testing.T, name, src string) *ast.Program {
	t.Helper()
	prog, err := parser.Parse(name, src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestSchedulerConformanceFairness(t *testing.T) {
	program := mustParse(t, "spinner.mh", spinnerSrc)
	for _, tc := range schedulerTable {
		t.Run(tc.name, func(t *testing.T) {
			limit := tc.fairSteps
			if limit == 0 {
				limit = 20_000
			}
			res := NewSession(program, Options{Procs: 1, Threads: 2, MaxSteps: limit}).Run(tc.mk())
			if tc.fairSteps == 0 {
				if got := res.Outcome(); got != OutcomeBudget {
					t.Fatalf("starving scheduler: outcome %v, want %v", got, OutcomeBudget)
				}
				return
			}
			if res.Err != nil {
				t.Fatalf("spinner did not finish within the %d-step fairness bound: %v",
					tc.fairSteps, res.Err)
			}
		})
	}
}

func TestSchedulerConformanceDeterminism(t *testing.T) {
	program := mustParse(t, "election.mh", electionSrc)
	for _, tc := range schedulerTable {
		t.Run(tc.name, func(t *testing.T) {
			run := func() *Result {
				return NewSession(program, Options{Procs: 2, Threads: 2, MaxSteps: 100_000}).Run(tc.mk())
			}
			a, b := run(), run()
			if a.Output != b.Output {
				t.Fatalf("output not reproducible:\n-- run 1 --\n%s-- run 2 --\n%s", a.Output, b.Output)
			}
			if a.Outcome() != b.Outcome() {
				t.Fatalf("outcome not reproducible: %v vs %v", a.Outcome(), b.Outcome())
			}
			if a.Stats.Steps != b.Stats.Steps {
				t.Fatalf("step count not reproducible: %d vs %d", a.Stats.Steps, b.Stats.Steps)
			}
			if a.Err == nil {
				for r, v := range a.ExitValues {
					if b.ExitValues[r] != v {
						t.Fatalf("exit value of rank %d not reproducible: %d vs %d", r, v, b.ExitValues[r])
					}
				}
			}
		})
	}
}

// TestSchedulerConformanceDeadlockOracle: serialization must not blind
// the quiescence oracle — the rank-divergent barrier deadlocks under
// every scheduler, with the full report.
func TestSchedulerConformanceDeadlockOracle(t *testing.T) {
	program := mustParse(t, "guarded.mh", guardedBarrierSrc)
	for _, tc := range schedulerTable {
		t.Run(tc.name, func(t *testing.T) {
			res := NewSession(program, Options{Procs: 2, Threads: 2, MaxSteps: 100_000}).Run(tc.mk())
			if got := res.Outcome(); got != OutcomeDeadlock {
				t.Fatalf("outcome %v (err %v), want deadlock", got, res.Err)
			}
		})
	}
}

// TestSerializedCleanRunMatchesFreeRunning: on a deterministic clean
// program, the default schedule computes the same values and stats as
// the round-robin reference schedule.
func TestSerializedCleanRunMatchesFreeRunning(t *testing.T) {
	src := `
func main() {
	MPI_Init()
	var x = rank() + 1
	parallel num_threads(4) {
		pfor i = 0 .. 16 {
			atomic x += i
		}
		single {
			MPI_Allreduce(x, x, sum)
		}
	}
	print(x)
	MPI_Finalize()
	return x
}
`
	program := mustParse(t, "clean.mh", src)
	dflt := Run(program, Options{Procs: 2, Threads: 4})
	rr := NewSession(program, Options{Procs: 2, Threads: 4}).Run(sched.NewRoundRobin())
	if dflt.Err != nil || rr.Err != nil {
		t.Fatalf("clean program failed: default=%v rr=%v", dflt.Err, rr.Err)
	}
	for r := range dflt.ExitValues {
		if dflt.ExitValues[r] != rr.ExitValues[r] {
			t.Errorf("rank %d: default %d vs rr %d", r, dflt.ExitValues[r], rr.ExitValues[r])
		}
	}
	if dflt.Stats.Collectives != rr.Stats.Collectives ||
		dflt.Stats.Barriers != rr.Stats.Barriers {
		t.Errorf("stats diverge: default %+v vs rr %+v", dflt.Stats, rr.Stats)
	}
}

// TestTokenReplayRunsUntraced: a token replay is a Recorder that keeps
// no branch point and has no event trace. A replay of the spinner that
// spins to the step budget, passing a branch point at nearly every
// statement, records none, and the run is untraced: the pooled run
// environment never builds its trace counters.
func TestTokenReplayRunsUntraced(t *testing.T) {
	sess := NewSession(mustParse(t, "spinner.mh", spinnerSrc), Options{Procs: 1, Threads: 2, MaxSteps: 20_000})
	inspected := 0
	for range 8 {
		s, err := sched.Parse("trace:0.0")
		if err != nil {
			t.Fatal(err)
		}
		rec := s.(*sched.Recorder)
		res := sess.Run(rec)
		if got := res.Outcome(); got != OutcomeBudget || res.Diverged {
			t.Fatalf("replay: outcome %v, diverged %t; want %v, not diverged", got, res.Diverged, OutcomeBudget)
		}
		if len(rec.Branches) != 0 || rec.EventTrace() != nil {
			t.Fatalf("replay kept %d branch points and event trace %v, want none", len(rec.Branches), rec.EventTrace())
		}
		// A pool may drop what it is given (under the race detector it
		// does so at random), so inspect every environment it kept.
		if v := sess.envs.Get(); v != nil {
			inspected++
			if v.(*runner).tr != nil {
				t.Fatal("a token replay built the run environment's trace counters")
			}
			sess.envs.Put(v)
		}
	}
	if inspected == 0 {
		t.Fatal("no pooled run environment to inspect")
	}
}
