package workload

import (
	"strings"
	"testing"

	"parcoach/internal/core"
	"parcoach/internal/explore"
	"parcoach/internal/instrument"
	"parcoach/internal/interp"
	"parcoach/internal/omp"
	"parcoach/internal/parser"
	"parcoach/internal/sem"
	"parcoach/internal/verifier"
)

// compileWorkload parses and checks a generated source.
func compileWorkload(t *testing.T, w Workload) *core.Result {
	t.Helper()
	prog, err := parser.Parse(w.Name+".mh", w.Source)
	if err != nil {
		t.Fatalf("%s does not parse: %v\n%s", w.Name, err, numbered(w.Source))
	}
	if err := sem.Check(prog); err != nil {
		t.Fatalf("%s fails sem: %v", w.Name, err)
	}
	return core.Analyze(prog, core.Options{})
}

func numbered(src string) string {
	lines := strings.Split(src, "\n")
	var b strings.Builder
	for i, l := range lines {
		b.WriteString(strings.TrimRight(strings.Join([]string{itoa(i + 1), l}, "\t"), " "))
		b.WriteByte('\n')
	}
	return b.String()
}

func itoa(n int) string {
	return strings.TrimLeft(strings.Repeat(" ", 4)+string(rune('0'+n%10)), " ")
}

// The base benchmarks are correct programs, but — like the paper's real
// benchmarks — they contain correct-yet-statically-unprovable collective
// guards (load-balancing idioms), so the static phase issues a few
// collective-mismatch warnings and generates checks that must then pass at
// run time. Phase-1/2 (threading) warnings must not appear.
func TestFigure1SetBaseWarnings(t *testing.T) {
	for _, sc := range []Scale{ScaleS, ScaleA} {
		for _, w := range Figure1Set(sc) {
			res := compileWorkload(t, w)
			counts := core.CountByKind(res.Errors())
			if counts[core.DiagMultithreadedCollective] != 0 || counts[core.DiagConcurrentCollectives] != 0 {
				t.Errorf("%s (base) must have no threading warnings: %v", w.Name, res.Errors())
			}
			if counts[core.DiagAmbiguousWord] != 0 {
				t.Errorf("%s (base) must have no word conflicts: %v", w.Name, res.Errors())
			}
			if counts[core.DiagCollectiveMismatch] == 0 {
				t.Errorf("%s (base) should carry its designed unprovable-guard warnings", w.Name)
			}
		}
	}
}

func TestFigure1SetRunsClean(t *testing.T) {
	for _, w := range Figure1Set(ScaleS) {
		prog, err := parser.Parse(w.Name+".mh", w.Source)
		if err != nil {
			t.Fatal(err)
		}
		// Uninstrumented: the programs are correct.
		res := interp.Run(prog, interp.Options{Procs: w.Procs, Threads: 2})
		if res.Err != nil {
			t.Errorf("%s run failed: %v", w.Name, res.Err)
		}
		if res.Stats.Collectives == 0 {
			t.Errorf("%s executed no collectives", w.Name)
		}
		// Instrumented: the static false positives must be validated, not
		// aborted — and some CC checks must actually execute.
		ares := core.Analyze(prog, core.Options{})
		inst := instrument.Program(prog, ares)
		ires := interp.Run(inst, interp.Options{Procs: w.Procs, Threads: 2})
		if ires.Err != nil {
			t.Errorf("%s instrumented run must clear its false positives: %v", w.Name, ires.Err)
		}
		if ires.Stats.CCChecks == 0 {
			t.Errorf("%s instrumented run executed no CC checks", w.Name)
		}
	}
}

func TestHeraScalesWithModules(t *testing.T) {
	small := HERA(Scale{Zones: 1, Steps: 2, Points: 8, Modules: 4, Reps: 1}, BugNone)
	big := HERA(Scale{Zones: 1, Steps: 2, Points: 8, Modules: 24, Reps: 1}, BugNone)
	if len(big.Source) < 3*len(small.Source) {
		t.Errorf("HERA must grow with Modules: %d vs %d bytes", len(small.Source), len(big.Source))
	}
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	a := BTMZ(ScaleA, BugNone)
	b := BTMZ(ScaleA, BugNone)
	if a.Source != b.Source {
		t.Error("generator output must be deterministic")
	}
}

// Detection matrix, static side: every seeded bug must produce at least
// one warning of the expected class in every workload that hosts it.
func TestSeededBugsAreFlaggedStatically(t *testing.T) {
	type gen struct {
		name string
		make func(Scale, Bug) Workload
	}
	gens := []gen{
		{"BT-MZ", BTMZ}, {"SP-MZ", SPMZ}, {"LU-MZ", LUMZ}, {"EPCC", EPCC}, {"HERA", HERA},
	}
	wantKind := map[Bug]core.DiagKind{
		BugMultithreadedCollective: core.DiagMultithreadedCollective,
		BugConcurrentSingles:       core.DiagConcurrentCollectives,
		BugSectionsCollectives:     core.DiagConcurrentCollectives,
		BugRankDependentCollective: core.DiagCollectiveMismatch,
		BugEarlyReturn:             core.DiagCollectiveMismatch,
		// The wrong-op value bug diverges control flow by rank around
		// same-kind collectives: statically indistinguishable from a real
		// sequence mismatch, so it still draws a mismatch warning.
		BugMismatchedKinds: core.DiagCollectiveMismatch,
		BugWrongOp:         core.DiagCollectiveMismatch,
	}
	for _, g := range gens {
		for _, bug := range AllBugs {
			want, ok := wantKind[bug]
			if !ok {
				// wrong-root and torn-buffer are value bugs with no static
				// signature by design: every rank calls the same collective
				// sequence. Their detection is the value oracle's job
				// (TestMicroDetectionMatrix, TestTornBufferScheduleDependence).
				continue
			}
			w := g.make(ScaleS, bug)
			res := compileWorkload(t, w)
			counts := core.CountByKind(res.Errors())
			if counts[want] == 0 {
				t.Errorf("%s + %s: expected a %s warning, got %v",
					g.name, bug, want, res.Errors())
			}
		}
	}
}

// Detection matrix, dynamic side (micro corpus): instrumented runs abort
// with a verifier error of the right class; the clean micro passes.
func TestMicroDetectionMatrix(t *testing.T) {
	wantKind := map[Bug]verifier.ErrKind{
		BugMultithreadedCollective: verifier.ErrMultithreadedCollective,
		BugConcurrentSingles:       verifier.ErrConcurrentCollectives,
		BugSectionsCollectives:     verifier.ErrConcurrentCollectives,
		BugRankDependentCollective: verifier.ErrCollectiveMismatch,
		BugEarlyReturn:             verifier.ErrCollectiveMismatch,
		BugMismatchedKinds:         verifier.ErrCollectiveMismatch,
	}
	// The value bug classes are caught by the oracle, not the planted
	// checks: they produce a *verifier.ValueError of the given class.
	wantValue := map[Bug]verifier.ValueCheck{
		BugWrongRoot: verifier.ValueWrongRoot,
		BugWrongOp:   verifier.ValueWrongOp,
	}
	for _, bug := range AllBugs {
		if bug == BugTornBuffer {
			// Schedule-dependent: a single run may legitimately miss it.
			// Covered by TestTornBufferScheduleDependence.
			continue
		}
		w := Micro(bug)
		prog, err := parser.Parse(w.Name+".mh", w.Source)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if err := sem.Check(prog); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		res := core.Analyze(prog, core.Options{})
		inst := instrument.Program(prog, res)
		// The concurrency bug classes race two detectors on multi-process
		// runs: the verifier's phase counter on one rank versus the MPI
		// matcher observing the cross-rank mismatch. Run them on a single
		// process so the verifier detection is the only (deterministic)
		// outcome; the multi-process behaviour is covered by
		// TestSeededBenchmarksAbortAtRuntime.
		procs := 2
		if bug == BugConcurrentSingles || bug == BugSectionsCollectives {
			procs = 1
		}
		wantCheck, isValue := wantValue[bug]
		out := interp.Run(inst, interp.Options{Procs: procs, Threads: 2, Policy: omp.RoundRobin, ValueCheck: isValue})
		if out.Err == nil {
			t.Errorf("%s: instrumented run must abort", w.Name)
			continue
		}
		if isValue {
			ve, ok := out.Err.(*verifier.ValueError)
			if !ok {
				t.Errorf("%s: want value error, got %T: %v", w.Name, out.Err, out.Err)
			} else if ve.Check != wantCheck {
				t.Errorf("%s: check = %v, want %v", w.Name, ve.Check, wantCheck)
			}
			continue
		}
		ve, ok := out.Err.(*verifier.Error)
		if !ok {
			t.Errorf("%s: want verifier error, got %T: %v", w.Name, out.Err, out.Err)
			continue
		}
		if ve.Kind != wantKind[bug] {
			t.Errorf("%s: kind = %v, want %v", w.Name, ve.Kind, wantKind[bug])
		}
	}

	// The clean micro must pass instrumented execution untouched.
	w := Micro(BugNone)
	prog, err := parser.Parse(w.Name+".mh", w.Source)
	if err != nil {
		t.Fatal(err)
	}
	res := core.Analyze(prog, core.Options{})
	if len(res.Errors()) != 0 {
		t.Fatalf("clean micro has warnings: %v", res.Errors())
	}
	inst := instrument.Program(prog, res)
	out := interp.Run(inst, interp.Options{Procs: 2, Threads: 2})
	if out.Err != nil {
		t.Errorf("clean micro failed: %v", out.Err)
	}
}

// The torn-buffer value bug is schedule-dependent: the round-robin
// scheduler provably misses it (the writer thread always drains before
// the collective matches), while schedule exploration with the oracle
// armed reaches a torn-buffer verdict.
func TestTornBufferScheduleDependence(t *testing.T) {
	w := Micro(BugTornBuffer)
	prog, err := parser.Parse(w.Name+".mh", w.Source)
	if err != nil {
		t.Fatal(err)
	}
	if err := sem.Check(prog); err != nil {
		t.Fatal(err)
	}
	res := core.Analyze(prog, core.Options{})
	inst := instrument.Program(prog, res)

	// One session with the value oracle armed serves both explorations.
	sess := interp.NewSession(inst, interp.Options{
		Procs: w.Procs, Threads: w.Threads, MaxSteps: explore.DefaultMaxSteps,
		ValueCheck: true,
	})
	rr := explore.ExploreSession(sess, explore.Options{Strategy: explore.StrategyRoundRobin})
	if rr.FirstFailure != nil {
		t.Errorf("round-robin schedule must miss the torn buffer, got %v", rr.FirstFailure.Err)
	}

	rnd := explore.ExploreSession(sess, explore.Options{Strategy: explore.StrategyRandom, Schedules: 16})
	if rnd.FirstFailure == nil {
		t.Fatal("random exploration found no failing schedule for the torn buffer")
	}
	if rnd.FirstFailure.Outcome != interp.OutcomeValueError ||
		!strings.Contains(rnd.FirstFailure.Err, "torn-buffer") {
		t.Fatalf("want a torn-buffer value error, got %s: %s",
			rnd.FirstFailure.Outcome, rnd.FirstFailure.Err)
	}
}

// Seeded full benchmarks, dynamic side: deterministic bug classes must
// abort instrumented runs on every workload.
func TestSeededBenchmarksAbortAtRuntime(t *testing.T) {
	deterministic := []Bug{BugMultithreadedCollective, BugRankDependentCollective, BugMismatchedKinds, BugEarlyReturn}
	type gen struct {
		name string
		make func(Scale, Bug) Workload
	}
	gens := []gen{{"BT-MZ", BTMZ}, {"EPCC", EPCC}, {"HERA", HERA}}
	for _, g := range gens {
		for _, bug := range deterministic {
			w := g.make(ScaleS, bug)
			prog, err := parser.Parse(w.Name+".mh", w.Source)
			if err != nil {
				t.Fatal(err)
			}
			res := core.Analyze(prog, core.Options{})
			inst := instrument.Program(prog, res)
			out := interp.Run(inst, interp.Options{Procs: 2, Threads: 2, Policy: omp.RoundRobin})
			if out.Err == nil {
				t.Errorf("%s + %s: instrumented run must abort", g.name, bug)
			}
		}
	}
}

func TestBugString(t *testing.T) {
	if BugNone.String() != "none" || BugEarlyReturn.String() != "early-return" {
		t.Error("bug names wrong")
	}
	if Micro(BugConcurrentSingles).Name != "micro-concurrent-singles" {
		t.Error("micro name wrong")
	}
}
