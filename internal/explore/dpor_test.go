package explore

// The DPOR acceptance suite: the one DFS must reach exhausted=true on
// every schedule-only racer with the identical verdict set the plain
// enumeration oracle (oracle_test.go) produces, at ≥10× fewer explored
// schedules, with every first-failure token still replaying to the
// identical error text — and across the generated matrix its
// exhaustive verdicts must cover everything the oracle observed.

import (
	"fmt"
	"reflect"
	"testing"

	"parcoach/internal/ast"
	"parcoach/internal/interp"
	"parcoach/internal/parser"
	"parcoach/internal/sched"
)

// TestDPORReductionPropertySuite pins the reduction on the three
// hand-written racers: identical verdict sets, both exhausted, ≥10×
// fewer schedules than plain enumeration, replay-identical failure
// text.
func TestDPORReductionPropertySuite(t *testing.T) {
	for _, tc := range scheduleOnlyBugs {
		t.Run(tc.name, func(t *testing.T) {
			prog := parser.MustParse(tc.name+".mh", tc.src)
			opts := Options{Strategy: StrategyDFS, Schedules: 1 << 16, MaxSteps: 200_000, Workers: 1}
			plain := plainDFS(prog, opts)
			dpor := Explore(prog, opts)

			if !plain.Exhausted || !dpor.Exhausted {
				t.Fatalf("both must exhaust: plain=%t dpor=%t (plain=%d dpor=%d schedules)",
					plain.Exhausted, dpor.Exhausted, plain.Schedules, dpor.Schedules)
			}
			if !reflect.DeepEqual(outcomeSet(dpor), outcomeSet(plain.Report)) {
				t.Errorf("verdict sets differ: dpor=%v plain=%v", outcomeSet(dpor), outcomeSet(plain.Report))
			}
			if !dpor.Caught(tc.want) {
				t.Errorf("DPOR missed the planted %s; verdicts: %+v", tc.want, dpor.Verdicts)
			}
			if dpor.Schedules*10 > plain.Schedules {
				t.Errorf("reduction below 10×: dpor=%d plain=%d schedules", dpor.Schedules, plain.Schedules)
			}
			t.Logf("plain=%d dpor=%d schedules (%.1fx), sleepskips=%d",
				plain.Schedules, dpor.Schedules, float64(plain.Schedules)/float64(dpor.Schedules), dpor.SleepSkips)

			replayFailure(t, "dpor", dpor, func(s sched.Scheduler) *interp.Result {
				return interp.NewSession(prog, interp.Options{Procs: 2, Threads: 2, MaxSteps: 200_000}).Run(s)
			})
		})
	}
}

// sameAtWidths checks that exploring prog at workers 4 and 8 yields
// w1, its report at one worker: byte-identical rendering and identical
// verdicts.
func sameAtWidths(t *testing.T, name string, prog *ast.Program, opts Options, w1 *Report) {
	t.Helper()
	for _, workers := range []int{4, 8} {
		o := opts
		o.Workers = workers
		if got := Explore(prog, o); got.String() != w1.String() || !reflect.DeepEqual(got.Verdicts, w1.Verdicts) {
			t.Errorf("%s: DFS report differs at %d workers:\n-- workers=1 --\n%s-- workers=%d --\n%s",
				name, workers, w1, workers, got)
		}
	}
}

// TestDPORDeterministicAcrossWorkers pins that a DFS report is a
// function of the program and the options alone: byte-identical at
// workers 1/4/8 whether the frontier drains or the budget cuts it
// short. Checked on the racers, exhausted and at truncating budgets,
// and on every matrix seed at the matrix budget.
func TestDPORDeterministicAcrossWorkers(t *testing.T) {
	t.Run("racers", func(t *testing.T) {
		for _, tc := range scheduleOnlyBugs {
			prog := parser.MustParse(tc.name+".mh", tc.src)
			opts := Options{Strategy: StrategyDFS, Schedules: 1 << 16, MaxSteps: 200_000, Workers: 1}
			w1 := Explore(prog, opts)
			if !w1.Exhausted {
				t.Fatalf("%s: DFS did not exhaust in %d schedules", tc.name, w1.Schedules)
			}
			sameAtWidths(t, tc.name, prog, opts, w1)
		}
	})
	t.Run("truncated-racers", func(t *testing.T) {
		truncated := 0
		for _, tc := range scheduleOnlyBugs {
			prog := parser.MustParse(tc.name+".mh", tc.src)
			for _, budget := range []int{1, 2, 3, 7, 16, 64} {
				opts := Options{Strategy: StrategyDFS, Schedules: budget, MaxSteps: 200_000, Workers: 1}
				w1 := Explore(prog, opts)
				if !w1.Exhausted {
					truncated++
				}
				sameAtWidths(t, fmt.Sprintf("%s at budget %d", tc.name, budget), prog, opts, w1)
			}
		}
		if truncated < 12 {
			t.Errorf("only %d racer budgets truncated — the check lost its teeth", truncated)
		}
	})
	t.Run("matrix", func(t *testing.T) {
		minExhausted, minTruncated := 100, 60
		if raceEnabled {
			minExhausted, minTruncated = 20, 10
		}
		exhausted, truncated := 0, 0
		for _, row := range mhgenMatrix() {
			if row.dfs.Exhausted {
				exhausted++
			} else {
				truncated++
			}
			sameAtWidths(t, row.name, row.prog, row.opts, row.dfs)
		}
		if exhausted < minExhausted || truncated < minTruncated {
			t.Errorf("only %d exhausted and %d truncated matrix seeds — the check lost its teeth", exhausted, truncated)
		}
		t.Logf("%d exhausted and %d truncated matrix seeds byte-identical at workers 1/4/8", exhausted, truncated)
	})
}

// TestDPOREquivalenceMhgenMatrix sweeps the generated matrix: wherever
// both the DFS and the oracle exhaust, the verdict sets must be
// identical (with the failing token replay-verified); wherever only the
// DFS exhausts — the whole point of the reduction — every outcome the
// truncated oracle observed must appear in the exhaustive set.
func TestDPOREquivalenceMhgenMatrix(t *testing.T) {
	// The ten-class seed rotation (torn-buffer's racing writer rarely
	// exhausts) leaves ~45 of 200 seeds exhausted under both; the
	// first 50 seeds only contain 8.
	minCompared := 40
	if raceEnabled {
		minCompared = 8
	}
	rows := mhgenMatrix()
	compared, dporOnly := 0, 0
	for _, row := range rows {
		dpor, plain := row.dfs, row.oracle
		if !dpor.Exhausted {
			continue // truncated DPOR enumerations are arbitrary samples
		}
		if dpor.Schedules > plain.Schedules {
			t.Errorf("%s: DPOR ran more schedules than plain enumeration: %d > %d",
				row.name, dpor.Schedules, plain.Schedules)
		}
		replayFailure(t, row.name, dpor, func(s sched.Scheduler) *interp.Result {
			return interp.NewSession(row.prog, interp.Options{
				Procs: row.opts.Procs, Threads: row.opts.Threads, MaxSteps: row.opts.MaxSteps,
			}).Run(s)
		})
		if plain.Exhausted {
			compared++
			if !reflect.DeepEqual(outcomeSet(dpor), outcomeSet(plain.Report)) {
				t.Errorf("%s: verdict sets differ: dpor=%v plain=%v",
					row.name, outcomeSet(dpor), outcomeSet(plain.Report))
			}
		} else {
			// DPOR exhausted a space the oracle could only sample: the
			// sample cannot contain outcomes the exhaustive set lacks.
			dporOnly++
			for _, v := range plain.Verdicts {
				if !dpor.Caught(v.Outcome) {
					t.Errorf("%s: plain enumeration observed %v but exhaustive DPOR did not", row.name, v.Outcome)
				}
			}
		}
	}
	if compared < minCompared {
		t.Errorf("only %d/%d seeds exhausted under both — the comparison lost its teeth", compared, len(rows))
	}
	t.Logf("compared %d seeds exhausted under both; %d exhausted only under DPOR", compared, dporOnly)
}

// TestPrunedAndSleepSkipsAreSeparate is the counter-semantics
// regression: state-signature prunes belong to plain enumeration, and
// the DFS reports only its sleep-set skips — a racer's rediscovered
// reversals.
func TestPrunedAndSleepSkipsAreSeparate(t *testing.T) {
	prog := parser.MustParse("racing-flag-read.mh", scheduleOnlyBugs[2].src)
	opts := Options{Strategy: StrategyDFS, Schedules: 1 << 16, MaxSteps: 200_000, Workers: 1}

	if plain := plainDFS(prog, opts); plain.pruned == 0 {
		t.Errorf("plain enumeration on a racer should state-prune something, got 0")
	}
	if dpor := Explore(prog, opts); dpor.SleepSkips == 0 {
		t.Errorf("DPOR on a racer should suppress rediscovered reversals, got SleepSkips=0")
	}
}
