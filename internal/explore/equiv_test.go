package explore

// The equivalence suite: the one DFS must produce the same *validation
// verdict* as the plain enumeration oracle (oracle_test.go) at any
// worker count, on the hand-written schedule-only deadlock programs and
// across the 200-seed generated matrix — and must never detect a
// failure later than the oracle does.
//
// What "equivalent" means here — and deliberately does not mean:
//
//   - The verdict outcome set, the Exhausted flag, and the presence and
//     outcome class of a first failure are compared exactly wherever
//     both enumerations exhaust.
//   - Replay tokens are compared by *replaying them*: a report's
//     first-failure token must reproduce its reported outcome and error
//     text bit-for-bit. The tokens themselves may name different
//     schedules, because the oracle keeps one representative per
//     (positional state, alternative) pair and DPOR one per class of
//     commuting interleavings.
//   - Schedule counts differ — that is the reduction — and are not
//     compared, beyond DPOR never needing more than the oracle.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"parcoach/internal/ast"
	"parcoach/internal/interp"
	"parcoach/internal/mhgen"
	"parcoach/internal/parser"
	"parcoach/internal/sched"
)

// replayFailure re-runs a report's first failure from its token and
// checks it reproduces the reported outcome and error text.
func replayFailure(t *testing.T, label string, rep *Report, run func(sched.Scheduler) *interp.Result) {
	t.Helper()
	if rep.FirstFailure == nil {
		return
	}
	s, err := sched.Parse(rep.FirstFailure.Schedule)
	if err != nil {
		t.Fatalf("%s: first-failure token %q does not parse: %v", label, rep.FirstFailure.Schedule, err)
	}
	res := run(s)
	if got := res.Outcome(); got != rep.FirstFailure.Outcome {
		t.Fatalf("%s: replay of %q = %v, want %v (err: %v)",
			label, rep.FirstFailure.Schedule, got, rep.FirstFailure.Outcome, res.Err)
	}
	if res.Err == nil || res.Err.Error() != rep.FirstFailure.Err {
		t.Fatalf("%s: replay error text differs:\n got: %v\nwant: %s", label, res.Err, rep.FirstFailure.Err)
	}
}

// matrixRow is one program of the generated matrix with its oracle and
// one-worker DFS reports at the matrix budget.
type matrixRow struct {
	name   string
	prog   *ast.Program
	opts   Options
	oracle oracleReport
	dfs    *Report
}

var (
	matrixOnce sync.Once
	matrixRows []matrixRow
)

// mhgenMatrix explores the same seeds as the differential matrix
// (mhgen.FromSeed) with the oracle and with the DFS at one worker, both
// at a 256-schedule budget, once per test binary: the matrix tests
// check different properties of the same reports. The pristine source
// is explored — equivalence is about the enumeration, not the planted
// instrumentation, so planted bugs surface as deadlocks or MPI errors.
// The race gate exercises the frontier's concurrent rounds on the
// first 50 seeds; the full 200-seed proof runs in the regular suite.
func mhgenMatrix() []matrixRow {
	matrixOnce.Do(func() {
		seeds := uint64(200)
		if raceEnabled {
			seeds = 50
		}
		for seed := uint64(0); seed < seeds; seed++ {
			gp := mhgen.FromSeed(seed)
			prog := parser.MustParse(gp.Name+".mh", gp.Source)
			opts := Options{
				Strategy: StrategyDFS, Schedules: 256, Workers: 1,
				Procs: gp.Procs, Threads: gp.Threads, MaxSteps: 100_000,
			}
			matrixRows = append(matrixRows, matrixRow{
				name: gp.Name, prog: prog, opts: opts,
				oracle: plainDFS(prog, opts), dfs: Explore(prog, opts),
			})
		}
	})
	return matrixRows
}

// TestFrontierEquivalencePropertySuite compares the DFS at workers
// 1/4/8 with the oracle on the three schedule-only deadlock programs.
func TestFrontierEquivalencePropertySuite(t *testing.T) {
	for _, tc := range scheduleOnlyBugs {
		t.Run(tc.name, func(t *testing.T) {
			prog := parser.MustParse(tc.name+".mh", tc.src)
			opts := Options{Strategy: StrategyDFS, Schedules: 4096, MaxSteps: 200_000, Workers: 1}
			plain := plainDFS(prog, opts)
			replayFailure(t, "plain", plain.Report, func(s sched.Scheduler) *interp.Result {
				return interp.NewSession(prog, interp.Options{Procs: 2, Threads: 2, MaxSteps: 200_000}).Run(s)
			})
			for _, workers := range []int{1, 4, 8} {
				o := opts
				o.Workers = workers
				dpor := Explore(prog, o)
				label := fmt.Sprintf("dpor-w%d", workers)
				if dpor.Exhausted && !plain.Exhausted {
					// DPOR exhausts spaces the oracle only samples within
					// the same budget — that is the reduction working. The
					// sample cannot contain outcomes the exhaustive set lacks.
					for _, v := range plain.Verdicts {
						if !dpor.Caught(v.Outcome) {
							t.Errorf("%s: oracle observed %v but exhaustive run did not", label, v.Outcome)
						}
					}
				} else {
					if dpor.Exhausted != plain.Exhausted {
						t.Errorf("%s: Exhausted=%t, oracle=%t", label, dpor.Exhausted, plain.Exhausted)
					}
					if !reflect.DeepEqual(outcomeSet(dpor), outcomeSet(plain.Report)) {
						t.Errorf("%s: verdict set %v, oracle %v", label, outcomeSet(dpor), outcomeSet(plain.Report))
					}
				}
				if !dpor.Caught(tc.want) {
					t.Errorf("%s: missed the planted %s", label, tc.want)
				}
				if dpor.FirstFailure == nil || plain.FirstFailure == nil {
					t.Fatalf("%s: first failure missing: dpor=%v oracle=%v", label, dpor.FirstFailure, plain.FirstFailure)
				}
				if dpor.FirstFailure.Outcome != plain.FirstFailure.Outcome {
					t.Errorf("%s: first failure %v, oracle %v", label,
						dpor.FirstFailure.Outcome, plain.FirstFailure.Outcome)
				}
				replayFailure(t, label, dpor, func(s sched.Scheduler) *interp.Result {
					return interp.NewSession(prog, interp.Options{Procs: 2, Threads: 2, MaxSteps: 200_000}).Run(s)
				})
			}
		})
	}
}

// TestFrontierEquivalenceMhgenMatrix is the detection gate at one
// worker, where both enumerations are deterministic even when the
// budget truncates them: on every matrix seed, every failing outcome
// class the oracle finds, the DFS finds too, at no later schedule
// (Verdict.First, the schedules-to-first-detection metric).
func TestFrontierEquivalenceMhgenMatrix(t *testing.T) {
	rows := mhgenMatrix()
	detected := 0
	for _, row := range rows {
		if row.oracle.FirstFailure != nil {
			detected++
		}
		for _, v := range row.oracle.Verdicts {
			if v.Outcome == interp.OutcomeClean {
				continue
			}
			got := row.dfs.Verdict(v.Outcome)
			switch {
			case got == nil:
				t.Errorf("%s: oracle found %v at schedule %d, DPOR missed it", row.name, v.Outcome, v.First)
			case got.First > v.First:
				t.Errorf("%s: oracle found %v at schedule %d, DPOR only at %d", row.name, v.Outcome, v.First, got.First)
			}
		}
	}
	if detected < len(rows)/4 {
		t.Errorf("the oracle found failures on only %d/%d seeds — the gate lost its teeth", detected, len(rows))
	}
	t.Logf("%d/%d seeds with an oracle failure, none detected later by DPOR", detected, len(rows))
}
