package explore

import (
	"context"
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"parcoach/internal/chaos"
	"parcoach/internal/interp"
	"parcoach/internal/leakcheck"
	"parcoach/internal/parser"
)

// explorePaths enumerates every engine path a cancellation or panic can
// travel: the sampled fan-out and the DFS frontier.
var explorePaths = []struct {
	name string
	opts Options
}{
	{"random", Options{Strategy: StrategyRandom, Schedules: 64, Seed: 3, MaxSteps: 100_000, Workers: 2}},
	{"dfs-dpor", Options{Strategy: StrategyDFS, Schedules: 64, MaxSteps: 100_000, Workers: 2}},
}

// TestExploreCancelPartialReport: canceling mid-exploration (here at an
// exact run arrival, via the chaos injector, so the test replays
// deterministically) stops every engine path with a well-formed partial
// report: Canceled set, fewer schedules than the budget, and the
// rendered report carrying the marker.
func TestExploreCancelPartialReport(t *testing.T) {
	leakcheck.Check(t)
	prog := parser.MustParse("racer.mh", racerSrc)
	for _, path := range explorePaths {
		t.Run(path.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			disarm := chaos.Arm(chaos.Config{
				"explore.run": {First: 5, Action: chaos.ActCancel, Cancel: cancel},
			})
			defer disarm()

			opts := path.opts
			opts.Ctx = ctx
			rep := Explore(prog, opts)
			if !rep.Canceled {
				t.Fatal("canceled exploration did not mark its report Canceled")
			}
			if rep.Schedules >= opts.Schedules {
				t.Fatalf("canceled exploration still ran the full budget: %d/%d", rep.Schedules, opts.Schedules)
			}
			if !strings.Contains(rep.String(), "canceled=true") {
				t.Fatalf("rendered report lacks the canceled marker:\n%s", rep)
			}
			for _, v := range rep.Verdicts {
				if v.Outcome == interp.OutcomeCanceled {
					t.Fatal("an aborted half-run leaked into the verdict aggregation")
				}
			}
		})
	}
}

// TestExploreAlreadyCanceled: a context canceled before the exploration
// starts yields an empty well-formed report instead of one refused run
// per budgeted schedule.
func TestExploreAlreadyCanceled(t *testing.T) {
	leakcheck.Check(t)
	prog := parser.MustParse("racer.mh", racerSrc)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep := Explore(prog, Options{Strategy: StrategyRandom, Schedules: 32, Ctx: ctx, MaxSteps: 100_000})
	if !rep.Canceled || rep.Schedules != 0 || len(rep.Verdicts) != 0 {
		t.Fatalf("pre-canceled exploration = %+v, want empty canceled report", rep)
	}
}

// TestCanceledReportJSON: the report of an exploration that ran no
// schedule still encodes its verdicts as a list, so a client of
// parcoachd's /explore reads [] rather than null.
func TestCanceledReportJSON(t *testing.T) {
	prog := parser.MustParse("racer.mh", racerSrc)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, err := json.Marshal(Explore(prog, Options{Strategy: StrategyDFS, Ctx: ctx}))
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"strategy":"dfs","schedules":0,"exhausted":false,"sleepSkips":0,"diverged":0,"verdicts":[],"firstFailure":null,"canceled":true}`
	if string(got) != want {
		t.Fatalf("canceled report encodes as\n%s\nwant\n%s", got, want)
	}
}

// TestSampledExploreBuildsBlocks: a sampled exploration builds its
// schedules a block at a time, so what it allocates before the first
// result does not grow with the budget. A budget of 2^18 schedules,
// canceled at the first progress event, must have allocated less than
// 4 MB by then; building every schedule up front took about 27 MB.
func TestSampledExploreBuildsBlocks(t *testing.T) {
	leakcheck.Check(t)
	prog := parser.MustParse("racer.mh", racerSrc)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var before, first runtime.MemStats
	runtime.ReadMemStats(&before)
	rep := Explore(prog, Options{
		Strategy: StrategyRandom, Schedules: 1 << 18, MaxSteps: 100_000, Workers: 1, Ctx: ctx,
		Progress: func(ProgressEvent) {
			if first.TotalAlloc == 0 {
				runtime.ReadMemStats(&first)
				cancel()
			}
		},
	})
	if !rep.Canceled || rep.Schedules != 1 {
		t.Fatalf("exploration canceled at its first event ran %d schedules (canceled=%t), want 1", rep.Schedules, rep.Canceled)
	}
	if got := first.TotalAlloc - before.TotalAlloc; got >= 4<<20 {
		t.Fatalf("allocated %d bytes before the first result, want < 4 MB", got)
	}
}

// TestExploreQuarantinesPanickingRun: a run that panics is caught at the
// run boundary, classified internal-error, counted in Quarantined, and
// the exploration finishes its remaining budget — on every engine path.
// The panicking run explored nothing below its prefix, so a DFS must
// not report exhaustion, even when the root run is the one that
// panicked.
func TestExploreQuarantinesPanickingRun(t *testing.T) {
	leakcheck.Check(t)
	prog := parser.MustParse("racer.mh", racerSrc)
	for _, path := range explorePaths {
		t.Run(path.name, func(t *testing.T) {
			for _, arrival := range []int{1, 3} {
				disarm := chaos.Arm(chaos.Config{
					"explore.run": {First: arrival, Action: chaos.ActPanic},
				})
				rep := Explore(prog, path.opts)
				fired := chaos.Fired("explore.run")
				disarm()

				if rep.Canceled {
					t.Fatalf("run %d: quarantined panic canceled the exploration", arrival)
				}
				if rep.Exhausted {
					t.Fatalf("run %d: exploration with a quarantined run claims exhaustion\n%s", arrival, rep)
				}
				if rep.Quarantined != 1 {
					t.Fatalf("run %d: Quarantined = %d, want 1\n%s", arrival, rep.Quarantined, rep)
				}
				v := rep.Verdict(interp.OutcomeInternalError)
				if v == nil || v.Count != 1 {
					t.Fatalf("run %d: internal-error verdict missing or miscounted:\n%s", arrival, rep)
				}
				if !strings.Contains(v.Sample, "panic quarantined at explore.run") {
					t.Fatalf("run %d: quarantined verdict sample %q does not identify the boundary", arrival, v.Sample)
				}
				if !strings.Contains(rep.String(), "quarantined=1") {
					t.Fatalf("run %d: rendered report lacks the quarantined marker:\n%s", arrival, rep)
				}
				if fired != 1 {
					t.Fatalf("run %d: chaos fired %d times, want 1", arrival, fired)
				}
			}
		})
	}
}
