package explore

import (
	"reflect"
	"strings"
	"testing"

	"parcoach/internal/interp"
	"parcoach/internal/parser"
)

// racerSrc is the shared benchmark/property racer (see bench.go).
const racerSrc = BenchRacerSrc

func TestParseStrategy(t *testing.T) {
	for _, s := range []Strategy{StrategyRoundRobin, StrategyRandom, StrategyPCT, StrategyDFS} {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseStrategy("zigzag"); err == nil {
		t.Error("ParseStrategy accepted an unknown strategy")
	}
}

// TestExploreDeterministicAcrossWorkers: for the sampling strategies
// the report — verdict counts, first-failure index, replay tokens — is
// identical at any pool width.
func TestExploreDeterministicAcrossWorkers(t *testing.T) {
	prog := parser.MustParse("racer.mh", racerSrc)
	for _, strat := range []Strategy{StrategyRandom, StrategyPCT} {
		opts := Options{Strategy: strat, Schedules: 64, Seed: 11, MaxSteps: 100_000}
		o1 := opts
		o1.Workers = 1
		o8 := opts
		o8.Workers = 8
		r1 := Explore(prog, o1)
		r8 := Explore(prog, o8)
		if r1.String() != r8.String() {
			t.Errorf("%s: report differs across worker counts:\n-- workers=1 --\n%s-- workers=8 --\n%s",
				strat, r1, r8)
		}
		if !reflect.DeepEqual(r1.Verdicts, r8.Verdicts) {
			t.Errorf("%s: verdicts differ across worker counts", strat)
		}
	}
}

// outcomeSet reduces a report to its sorted outcome classes.
func outcomeSet(r *Report) []interp.Outcome {
	var out []interp.Outcome
	for _, v := range r.Verdicts {
		out = append(out, v.Outcome)
	}
	return out
}

// TestDFSDeterministicAcrossWorkers: the DFS has no order-dependent
// pruning, so an exploration that drains its frontier renders
// byte-identically at any pool width — here on a one-rank racer.
func TestDFSDeterministicAcrossWorkers(t *testing.T) {
	t.Run("unhashed-byte-identical", func(t *testing.T) {
		prog := parser.MustParse("tiny-racer.mh", racerSrc)
		opts := Options{Strategy: StrategyDFS, Schedules: 50_000, MaxSteps: 100_000, Procs: 1, Workers: 1}
		r1 := Explore(prog, opts)
		if !r1.Exhausted {
			t.Fatalf("one-rank racer did not exhaust in %d schedules", r1.Schedules)
		}
		sameAtWidths(t, "tiny-racer", prog, opts, r1)
	})
}

// TestDFSBudgetNeverOvershoots: a DFS round never takes more prefixes
// than the budget has left, so the schedule count is bounded exactly,
// at any width — including budgets far narrower than the frontier gets
// wide. The flag-read racer needs ~100 schedules to exhaust, so every
// budget here truncates.
func TestDFSBudgetNeverOvershoots(t *testing.T) {
	prog := parser.MustParse("racing-flag-read.mh", scheduleOnlyBugs[2].src)
	for _, budget := range []int{1, 2, 3, 7, 16, 64} {
		for _, workers := range []int{1, 8} {
			rep := Explore(prog, Options{
				Strategy: StrategyDFS, Schedules: budget, Workers: workers, MaxSteps: 100_000,
			})
			if rep.Schedules > budget {
				t.Errorf("budget=%d workers=%d: ran %d schedules (overshoot)", budget, workers, rep.Schedules)
			}
			if !rep.Exhausted && rep.Schedules != budget {
				t.Errorf("budget=%d workers=%d: ran %d schedules without exhausting", budget, workers, rep.Schedules)
			}
		}
	}
}

// TestExploreSeedReproducible: the same seed reproduces the same report;
// a different seed is allowed to differ (and for this racer, random
// sampling does find the failure).
func TestExploreSeedReproducible(t *testing.T) {
	prog := parser.MustParse("racer.mh", racerSrc)
	opts := Options{Strategy: StrategyRandom, Schedules: 32, Seed: 3, MaxSteps: 100_000}
	a, b := Explore(prog, opts), Explore(prog, opts)
	if a.String() != b.String() {
		t.Fatalf("same seed produced different reports:\n%s\n%s", a, b)
	}
	if a.FirstFailure == nil {
		t.Fatal("32 random schedules should find the racing-winner deadlock")
	}
}

// TestExploreBudgetOutcome: a schedule that spins classifies as
// budget-exhausted, not as a deadlock.
func TestExploreBudgetOutcome(t *testing.T) {
	prog := parser.MustParse("spin.mh", `
func main() {
	var x = 1
	while x > 0 {
		x += 1
	}
}
`)
	rep := Explore(prog, Options{Strategy: StrategyRoundRobin, Procs: 1, MaxSteps: 5_000})
	if !rep.Caught(interp.OutcomeBudget) {
		t.Fatalf("want budget-exhausted verdict, got %+v", rep.Verdicts)
	}
	if rep.Caught(interp.OutcomeDeadlock) {
		t.Fatal("a spin must not classify as deadlock")
	}
}

// TestDFSExhaustsSequentialProgram: a single-threaded program has no
// branch points, so DFS runs exactly one schedule and reports the space
// exhausted.
func TestDFSExhaustsSequentialProgram(t *testing.T) {
	prog := parser.MustParse("seq.mh", `
func main() {
	MPI_Init()
	var x = rank()
	MPI_Allreduce(x, x, sum)
	print(x)
	MPI_Finalize()
}
`)
	rep := Explore(prog, Options{Strategy: StrategyDFS, Schedules: 100, Procs: 1, MaxSteps: 100_000})
	if rep.Schedules != 1 || !rep.Exhausted {
		t.Fatalf("sequential program: schedules=%d exhausted=%t, want 1/true", rep.Schedules, rep.Exhausted)
	}
	if rep.FirstFailure != nil {
		t.Fatalf("clean program failed: %+v", rep.FirstFailure)
	}
}

// TestReportString: the CLI rendering names the strategy, counts, and
// the replay token of the first failure.
func TestReportString(t *testing.T) {
	prog := parser.MustParse("racer.mh", racerSrc)
	rep := Explore(prog, Options{Strategy: StrategyDFS, Schedules: 512, MaxSteps: 100_000})
	s := rep.String()
	for _, want := range []string{"strategy=dfs", "deadlock", "-replay 'trace:"} {
		if !strings.Contains(s, want) {
			t.Errorf("report rendering missing %q:\n%s", want, s)
		}
	}
}
