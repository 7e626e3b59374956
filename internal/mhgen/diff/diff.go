// Package diff is the differential static/dynamic validation harness
// over generated MiniHybrid programs (internal/mhgen): each program is
// compiled in all three modes, executed instrumented and uninstrumented
// under the run controller's deadlock oracle, and the three verdicts —
// static diagnostics, runtime check aborts, deadlock reports — are
// cross-checked against the generator's ground-truth bug label.
//
// The harness enforces the paper's soundness contract and turns the rest
// into a detection matrix like the paper's table:
//
//   - a correct-by-construction program must never fail a run, in any
//     mode (static false positives are fine — the planted checks must
//     clear them at run time);
//   - a planted bug must be caught by a static warning or stopped by a
//     runtime check; reaching the deadlock oracle in ModeFull is a
//     soundness violation, and escaping undetected is a labeled false
//     negative that must be acknowledged in the golden matrix;
//   - ModeAnalyze and ModeFull must agree diagnostic-for-diagnostic, at
//     any worker count.
package diff

import (
	"fmt"
	"sort"
	"strings"

	"parcoach"
	"parcoach/internal/mhgen"
	"parcoach/internal/omp"
	"parcoach/internal/sched"
	"parcoach/internal/workload"
)

// Options configures an evaluation.
type Options struct {
	// Workers is the width of the exploration's run pool (0 =
	// GOMAXPROCS). Each compile runs serially.
	Workers int
}

const (
	// maxSteps bounds each run.
	maxSteps = 2_000_000
	// exploreSchedules is the per-program schedule budget of the
	// exploration pass over schedule-dependent programs. The concurrency
	// bug classes are judged against the exploration verdict — any
	// schedule whose planted check aborts counts as a dynamic detection
	// — and clean programs must stay clean under every explored
	// schedule.
	exploreSchedules = 8
)

// compile builds (name, src) in the given mode.
func (o Options) compile(name, src string, mode parcoach.Mode) (*parcoach.Program, error) {
	return parcoach.Compile(name, src, parcoach.Options{Mode: mode})
}

// scheduleDependent reports whether a bug class needs a particular
// thread interleaving to manifest dynamically — the classes whose
// detection a single deterministic schedule systematically under- or
// over-states, and which the harness therefore judges by exploration.
// The rank-divergence classes (rank-dependent, early-return,
// mismatched-kinds) manifest on every schedule and skip the extra runs.
func scheduleDependent(bug workload.Bug) bool {
	switch bug {
	case workload.BugMultithreadedCollective, workload.BugConcurrentSingles,
		workload.BugSectionsCollectives,
		// The torn source buffer only manifests when the racing writer is
		// interleaved between the snapshot and the match point — the value
		// oracle needs exploration to reach such a schedule (round-robin
		// provably misses it).
		workload.BugTornBuffer:
		return true
	}
	return false
}

// Label classifies one program's differential verdict.
type Label string

// Verdict labels, detection-matrix style.
const (
	// LabelTrueNegative: clean program, no static warning, clean runs.
	LabelTrueNegative Label = "TN"
	// LabelFalsePositive: clean program with a static warning that the
	// planted checks cleared at run time (the paper's CC story).
	LabelFalsePositive Label = "FP"
	// LabelStatic: planted bug flagged at compile time only.
	LabelStatic Label = "TP-static"
	// LabelDynamic: planted bug stopped by a runtime check only.
	LabelDynamic Label = "TP-dynamic"
	// LabelBoth: flagged at compile time and stopped by a runtime check.
	LabelBoth Label = "TP-both"
	// LabelFalseNegative: planted bug escaped both layers (no warning, no
	// check abort); it must be acknowledged in the golden matrix.
	LabelFalseNegative Label = "FN"
)

// Row is the differential verdict of one generated program.
type Row struct {
	Seed uint64
	Bug  workload.Bug
	Size mhgen.Size
	// StaticKinds are the deduplicated error-class warning kinds ("-" if
	// none).
	StaticKinds string
	// Full is the outcome of running the ModeFull (instrumented) program.
	Full parcoach.RunOutcome
	// Baseline is the outcome of running the uninstrumented program —
	// what would happen on a real machine. Recorded for clean programs
	// only ("-" otherwise): racy bug classes resolve differently run to
	// run without instrumentation, and golden files must be stable.
	Baseline string
	// Explored is the number of interleavings the exploration pass ran
	// ("-" when the program's verdict is schedule-independent or
	// exploration is disabled).
	Explored string
	// FirstDetect is the 0-based index of the first explored schedule
	// stopped by a planted check or the value oracle — the
	// schedules-to-first-detection metric ("-" when not explored or never
	// detected).
	FirstDetect string
	// FailSchedule is the replayable token of that first failing explored
	// schedule ("" when none). ReduceFailure replays it on every
	// reduction candidate, so reduced reproducers of schedule-only
	// failures keep failing on the same schedule. Not part of the rendered
	// row: the token is an exploration-order artifact, not a verdict.
	FailSchedule string
	Label        Label
	// Violations lists soundness-contract breaches (empty = sound).
	Violations []string
}

// String renders the row as one stable line of the detection matrix.
func (r Row) String() string {
	line := fmt.Sprintf("seed=%-4d %-9s bug=%-26s static=%-47s full=%-11s base=%-6s expl=%-3s det=%-3s %s",
		r.Seed, r.Size, r.Bug, r.StaticKinds, r.Full, r.Baseline, r.Explored, r.FirstDetect, r.Label)
	if len(r.Violations) > 0 {
		line += " VIOLATION: " + strings.Join(r.Violations, "; ")
	}
	return line
}

// Evaluate compiles gp in all three modes, runs it with and without
// instrumentation, and classifies the combined verdict.
func Evaluate(gp *mhgen.Program, opts Options) Row {
	row := Row{Seed: gp.Seed, Bug: gp.Bug, Size: gp.Size,
		StaticKinds: "-", Baseline: "-", Explored: "-", FirstDetect: "-"}
	name := gp.Name + ".mh"

	var progs [3]*parcoach.Program
	for i, mode := range []parcoach.Mode{parcoach.ModeBaseline, parcoach.ModeAnalyze, parcoach.ModeFull} {
		p, err := opts.compile(name, gp.Source, mode)
		if err != nil {
			row.Violations = append(row.Violations,
				fmt.Sprintf("compile (%s) failed: %v", mode, err))
			row.Label = labelFor(gp.Bug, false, false)
			return row
		}
		progs[i] = p
	}
	base, analyze, full := progs[0], progs[1], progs[2]

	// The analyze and full modes must agree on the diagnostics.
	if a, f := diagString(analyze), diagString(full); a != f {
		row.Violations = append(row.Violations,
			fmt.Sprintf("mode verdict divergence: analyze %q vs full %q", a, f))
	}

	staticCaught := len(full.Warnings()) > 0
	if kinds := full.WarningKinds(); len(kinds) > 0 {
		row.StaticKinds = strings.Join(kinds, ",")
	}

	runOpts := parcoach.RunOptions{
		Procs:    gp.Procs,
		Threads:  gp.Threads,
		Policy:   omp.RoundRobin,
		MaxSteps: maxSteps,
	}
	var rr sched.Scheduler // nil: the reference run takes the default schedule
	if gp.Bug == workload.BugTornBuffer {
		// The torn source buffer is the one class whose *instrumented*
		// outcome is schedule-dependent. Run it under the round-robin
		// reference schedule — which provably misses the race, exactly
		// the paper's point about single-schedule testing — and judge
		// detection by the exploration pass below.
		rr = sched.NewRoundRobin()
	}
	fullRes := full.NewSession(runOpts, false).Run(rr)
	row.Full = fullRes.Outcome()
	if rr != nil && (row.Full == parcoach.RunCheckAbort || row.Full == parcoach.RunValueError) {
		row.FailSchedule = "rr"
	}

	dynamicCaught := row.Full == parcoach.RunCheckAbort || row.Full == parcoach.RunValueError

	// Exploration pass: the schedule-dependent programs are judged
	// against the whole explored interleaving space, not the one
	// deterministic schedule. Any schedule stopped by a planted check is
	// a dynamic detection; clean programs must survive every schedule.
	if gp.Bug == workload.BugNone || scheduleDependent(gp.Bug) {
		// Random sampling rather than DFS: on generator-sized programs a
		// small DFS budget drains into permutations of the first few
		// statements, while seeded uniform schedules diversify the whole
		// run — empirically 8 random schedules reach every planted
		// concurrency bug that hundreds of DFS prefixes reach. DFS's
		// exhaustion guarantee is exercised on the hand-written programs
		// of internal/explore's property suite instead.
		rep := full.Explore(parcoach.ExploreOptions{
			Strategy:  parcoach.ExploreRandom,
			Schedules: exploreSchedules,
			Procs:     gp.Procs,
			Threads:   gp.Threads,
			MaxSteps:  maxSteps,
			Workers:   opts.Workers,
		})
		row.Explored = fmt.Sprint(rep.Schedules)
		detect := rep.Verdict(parcoach.RunCheckAbort)
		if v := rep.Verdict(parcoach.RunValueError); v != nil && (detect == nil || v.First < detect.First) {
			detect = v
		}
		if detect != nil {
			row.FirstDetect = fmt.Sprint(detect.First)
			row.FailSchedule = detect.Schedule
			if gp.Bug != workload.BugNone {
				dynamicCaught = true
			}
		}
		for _, v := range rep.Verdicts {
			switch {
			case gp.Bug == workload.BugNone && v.Outcome != parcoach.RunClean:
				row.Violations = append(row.Violations, fmt.Sprintf(
					"clean program failed under explored schedule %s: %s", v.Schedule, v.Sample))
			case gp.Bug != workload.BugNone && v.Outcome == parcoach.RunDeadlock && !staticCaught:
				row.Violations = append(row.Violations, fmt.Sprintf(
					"planted bug reached the deadlock oracle uncaught under explored schedule %s", v.Schedule))
			case gp.Bug != workload.BugNone &&
				(v.Outcome == parcoach.RunRuntimeError || v.Outcome == parcoach.RunBudget):
				row.Violations = append(row.Violations, fmt.Sprintf(
					"planted bug caused a %s under explored schedule %s: %s", v.Outcome, v.Schedule, v.Sample))
			}
		}
	}

	if gp.Bug == workload.BugNone {
		// The uninstrumented ground-truth run only informs the clean-side
		// contract; buggy programs skip it (its racy outcome would be
		// discarded anyway, and the reducer re-evaluates many times).
		baseRes := base.Run(runOpts)
		baseOutcome := baseRes.Outcome()
		row.Baseline = baseOutcome.String()
		if row.Full != parcoach.RunClean {
			row.Violations = append(row.Violations,
				fmt.Sprintf("clean program failed instrumented run: %v", fullRes.Err))
		}
		if baseOutcome != parcoach.RunClean {
			row.Violations = append(row.Violations,
				fmt.Sprintf("clean program failed uninstrumented run: %v", baseRes.Err))
		}
	} else {
		switch row.Full {
		case parcoach.RunDeadlock:
			// A deadlock report is acceptable only when the compile phase
			// already flagged the bug: the checks cannot preempt a rank
			// blocking in point-to-point traffic while its peers sit in a
			// CC round (the announcements cover collectives, not P2P).
			if !staticCaught {
				row.Violations = append(row.Violations,
					"planted bug reached the deadlock oracle uncaught in ModeFull")
			}
		case parcoach.RunRuntimeError:
			row.Violations = append(row.Violations,
				fmt.Sprintf("planted bug caused a plain runtime error in ModeFull: %v", fullRes.Err))
		case parcoach.RunBudget:
			// Pre-OutcomeBudget this was a RuntimeError and hence a
			// violation; the reclassification must not soften the
			// contract — a planted bug may never spin out the reference
			// run either.
			row.Violations = append(row.Violations,
				fmt.Sprintf("planted bug exhausted the step budget in ModeFull: %v", fullRes.Err))
		}
	}
	row.Label = labelFor(gp.Bug, staticCaught, dynamicCaught)
	return row
}

func labelFor(bug workload.Bug, staticCaught, dynamicCaught bool) Label {
	if bug == workload.BugNone {
		if staticCaught {
			return LabelFalsePositive
		}
		return LabelTrueNegative
	}
	switch {
	case staticCaught && dynamicCaught:
		return LabelBoth
	case staticCaught:
		return LabelStatic
	case dynamicCaught:
		return LabelDynamic
	}
	return LabelFalseNegative
}

func diagString(p *parcoach.Program) string {
	var parts []string
	for _, d := range p.Diagnostics() {
		parts = append(parts, d.String())
	}
	return strings.Join(parts, "\n")
}

// signature is the coarse behavior the reducer must preserve: the
// verdict label, the instrumented outcome, and whether the soundness
// contract was breached (violation texts carry positions that shift as
// statements are deleted, so they are not compared verbatim).
func signature(r Row) string {
	return fmt.Sprintf("%s|%s|%t", r.Label, r.Full, len(r.Violations) > 0)
}

// ReduceFailure greedily shrinks gp's source to the smallest program
// that still evaluates to the same verdict signature — the form in which
// the harness reports a failing seed. When the original verdict hinges
// on a particular explored schedule (FailSchedule non-empty), every
// candidate is additionally replayed under that exact schedule and must
// still fail there: re-judging with fresh exploration alone preserves
// the signature but can silently shift WHICH schedule fails, publishing
// a reproducer whose recorded schedule token no longer reproduces.
func ReduceFailure(gp *mhgen.Program, opts Options) string {
	ref := Evaluate(gp, opts)
	want := signature(ref)
	return mhgen.Reduce(gp.Source, func(src string) bool {
		probe := *gp
		probe.Source = src
		if signature(Evaluate(&probe, opts)) != want {
			return false
		}
		if ref.FailSchedule == "" {
			return true
		}
		return replayFails(&probe, ref.FailSchedule, opts)
	})
}

// replayFails compiles gp in ModeFull and runs it under the exact
// schedule token, reporting whether a planted check or the value oracle
// still stops that schedule. Trace tokens must additionally replay
// without diverging — a shrunk program that consumes the trace
// differently is not reproducing the original failure, merely failing
// somewhere nearby.
func replayFails(gp *mhgen.Program, token string, opts Options) bool {
	p, err := opts.compile(gp.Name+".mh", gp.Source, parcoach.ModeFull)
	if err != nil {
		return false
	}
	s, err := sched.Parse(token)
	if err != nil {
		return false
	}
	res := p.NewSession(parcoach.RunOptions{
		Procs:    gp.Procs,
		Threads:  gp.Threads,
		MaxSteps: maxSteps,
	}, false).Run(s)
	if out := res.Outcome(); out != parcoach.RunCheckAbort && out != parcoach.RunValueError {
		return false
	}
	return !res.Diverged
}

// Matrix aggregates rows into the per-bug-class detection counts of the
// paper's table.
type Matrix struct {
	Rows []Row
}

// Violations returns every soundness violation across the rows.
func (m *Matrix) Violations() []string {
	var out []string
	for _, r := range m.Rows {
		for _, v := range r.Violations {
			out = append(out, fmt.Sprintf("seed %d (%s): %s", r.Seed, r.Bug, v))
		}
	}
	return out
}

// FalseNegatives returns the rows whose planted bug escaped both layers.
func (m *Matrix) FalseNegatives() []Row {
	var out []Row
	for _, r := range m.Rows {
		if r.Label == LabelFalseNegative {
			out = append(out, r)
		}
	}
	return out
}

// Format renders the aggregate table followed by one line per program,
// sorted by seed — a stable, golden-file-friendly rendering.
func (m *Matrix) Format() string {
	rows := append([]Row(nil), m.Rows...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Seed < rows[j].Seed })

	type agg struct {
		total, static, dynamic, both, fn, tn, fp int
	}
	perBug := make(map[workload.Bug]*agg)
	bugs := append([]workload.Bug{workload.BugNone}, workload.AllBugs...)
	for _, b := range bugs {
		perBug[b] = &agg{}
	}
	for _, r := range rows {
		a := perBug[r.Bug]
		if a == nil {
			a = &agg{}
			perBug[r.Bug] = a
		}
		a.total++
		switch r.Label {
		case LabelStatic:
			a.static++
		case LabelDynamic:
			a.dynamic++
		case LabelBoth:
			a.both++
			a.static++
			a.dynamic++
		case LabelFalseNegative:
			a.fn++
		case LabelTrueNegative:
			a.tn++
		case LabelFalsePositive:
			a.fp++
		}
	}

	var b strings.Builder
	b.WriteString("Differential detection matrix — generated MiniHybrid corpus\n\n")
	fmt.Fprintf(&b, "%-26s %6s %7s %8s %6s %4s %4s %4s\n",
		"bug class", "progs", "static", "dynamic", "both", "FN", "TN", "FP")
	for _, bug := range bugs {
		a := perBug[bug]
		if a.total == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-26s %6d %7d %8d %6d %4d %4d %4d\n",
			bug.String(), a.total, a.static, a.dynamic, a.both, a.fn, a.tn, a.fp)
	}
	b.WriteString("\nper-seed verdicts:\n")
	for _, r := range rows {
		b.WriteString(r.String())
		b.WriteString("\n")
	}
	return b.String()
}
