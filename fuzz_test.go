package parcoach_test

import (
	"os"
	"path/filepath"
	"testing"

	"parcoach"
	"parcoach/internal/ast"
	"parcoach/internal/explore"
	"parcoach/internal/interp"
	"parcoach/internal/mhgen"
	"parcoach/internal/mhgen/diff"
	"parcoach/internal/parser"
	"parcoach/internal/sched"
	"parcoach/internal/workload"
)

// The fuzz targets below are seeded from the committed corpus under
// testdata/fuzz (regenerate with `go run ./cmd/mhgen -corpus testdata/fuzz`)
// plus the generator itself. CI smoke-runs them with -fuzztime=20s so
// they cannot rot; run them longer locally with e.g.
//
//	go test -run='^$' -fuzz=FuzzParse -fuzztime=2m .

// fuzzSeeds adds generated programs spanning every bug class to f.
func fuzzSeeds(f *testing.F) {
	for _, bug := range append([]workload.Bug{workload.BugNone}, workload.AllBugs...) {
		f.Add(mhgen.Generate(mhgen.Config{Seed: 5, Bug: bug}).Source)
	}
	f.Add("func main() { MPI_Init()\nMPI_Finalize() }")
	f.Add("func f(") // malformed
}

// FuzzParse: the parser never panics on any input, and accepted programs
// survive a print→reparse round trip.
func FuzzParse(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := parser.Parse("fuzz.mh", src)
		if err != nil || prog == nil {
			return
		}
		rendered := ast.String(prog)
		if _, err := parser.Parse("fuzz2.mh", rendered); err != nil {
			t.Fatalf("accepted program failed to reparse after printing: %v\noriginal:\n%s\nrendered:\n%s",
				err, src, rendered)
		}
	})
}

// FuzzCompile: the full ModeFull compile never panics on any parseable
// input; ModeAnalyze reports byte-identical diagnostics (codegen never
// changes the analysis: the diff harness's analyze≡full property, on
// fuzzed source), and a second ModeFull compile equals the first.
func FuzzCompile(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		full, err := parcoach.Compile("fuzz.mh", src, parcoach.Options{Mode: parcoach.ModeFull})
		if err != nil {
			return
		}
		analyze, err := parcoach.Compile("fuzz.mh", src, parcoach.Options{Mode: parcoach.ModeAnalyze})
		if err != nil {
			t.Fatalf("ModeFull compiled but ModeAnalyze failed: %v", err)
		}
		if got, want := diagString(analyze), diagString(full); got != want {
			t.Fatalf("ModeAnalyze diagnostics differ from ModeFull's:\n%s\nvs:\n%s", got, want)
		}
		again, err := parcoach.Compile("fuzz.mh", src, parcoach.Options{Mode: parcoach.ModeFull})
		if err != nil {
			t.Fatalf("second ModeFull compile failed: %v", err)
		}
		if got, want := diagString(again), diagString(full); got != want {
			t.Fatalf("second ModeFull compile's diagnostics differ:\n%s\nvs:\n%s", got, want)
		}
		if again.Stats != full.Stats {
			t.Fatalf("second ModeFull compile's stats differ: %+v vs %+v", again.Stats, full.Stats)
		}
		if (again.Instrumented == nil) != (full.Instrumented == nil) ||
			full.Instrumented != nil && ast.String(again.Instrumented) != ast.String(full.Instrumented) {
			t.Fatal("second ModeFull compile's instrumented tree differs")
		}
	})
}

// TestDifferentialMatrix is the acceptance harness of the generated
// corpus: 200 seeded programs — every planted bug class plus clean
// programs at both sizes — compiled in all three modes and executed
// under the run controller's deadlock oracle, with the verdicts
// cross-checked against the ground-truth labels. Any soundness
// violation fails with a greedily reduced reproducer; the full
// detection matrix is locked against testdata/golden/mhgen-matrix.golden
// (regenerate with -update).
func TestDifferentialMatrix(t *testing.T) {
	const seeds = 200
	opts := diff.Options{Workers: 4}
	var m diff.Matrix
	for seed := uint64(0); seed < seeds; seed++ {
		gp := mhgen.FromSeed(seed)
		row := diff.Evaluate(gp, opts)
		if len(row.Violations) > 0 {
			t.Errorf("seed %d (%s): %v\nreduced repro:\n%s",
				seed, gp.Bug, row.Violations, diff.ReduceFailure(gp, opts))
		}
		m.Rows = append(m.Rows, row)
	}
	if t.Failed() {
		return
	}
	for _, r := range m.FalseNegatives() {
		// A false negative is only tolerable when the golden matrix below
		// acknowledges it; flag it loudly so the diff is a deliberate act.
		t.Logf("labeled false negative: %s", r)
	}

	got := m.Format()
	path := filepath.Join("testdata", "golden", "mhgen-matrix.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden matrix (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("detection matrix changed (rerun with -update if intended):\n--- got ---\n%s", got)
	}
}

// TestDifferentialDeterminism pins the acceptance contract that the same
// seed yields a byte-identical program and an identical verdict at any
// worker count.
func TestDifferentialDeterminism(t *testing.T) {
	for _, seed := range []uint64{0, 3, 10, 41, 87, 123} {
		a, b := mhgen.FromSeed(seed), mhgen.FromSeed(seed)
		if a.Source != b.Source {
			t.Fatalf("seed %d: source not byte-identical", seed)
		}
		r1 := diff.Evaluate(a, diff.Options{Workers: 1})
		r8 := diff.Evaluate(b, diff.Options{Workers: 8})
		if r1.String() != r8.String() {
			t.Errorf("seed %d: verdicts differ across worker counts:\n%s\n%s", seed, r1, r8)
		}
	}
}

// TestExploreSmoke is the CI -race gate for the schedule-exploration
// stack: a planted concurrency bug must be caught on some explored
// schedule, the printed schedule must replay to the identical verdict,
// and the whole report must be byte-deterministic.
func TestExploreSmoke(t *testing.T) {
	gp := mhgen.Generate(mhgen.Config{Seed: 5, Bug: workload.BugConcurrentSingles})
	prog, err := parcoach.Compile(gp.Name+".mh", gp.Source, parcoach.Options{Mode: parcoach.ModeFull, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	opts := parcoach.ExploreOptions{
		Strategy:  parcoach.ExploreRandom,
		Schedules: 8,
		Procs:     gp.Procs,
		Threads:   gp.Threads,
		MaxSteps:  2_000_000,
		Workers:   4,
	}
	rep := prog.Explore(opts)
	v := rep.Verdict(parcoach.RunCheckAbort)
	if v == nil {
		t.Fatalf("planted %s escaped 8 explored schedules: %s", gp.Bug, rep)
	}
	if again := prog.Explore(opts); again.String() != rep.String() {
		t.Fatalf("exploration not deterministic:\n%s\n%s", rep, again)
	}
	// Replay the detecting schedule.
	s, err := sched.Parse(v.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	res := prog.NewSession(parcoach.RunOptions{
		Procs: gp.Procs, Threads: gp.Threads, MaxSteps: 2_000_000,
	}, false).Run(s)
	if got := parcoach.ClassifyRun(res.Err); got != parcoach.RunCheckAbort {
		t.Fatalf("replay of %q = %v (%v), want check-abort", v.Schedule, got, res.Err)
	}
}

// FuzzValueOracle: the value oracle never fires on a correct-by-
// construction program, under any explored schedule. The input is a
// generation seed, not program text: an arbitrary mutated program can
// legitimately carry a wrong root or a torn buffer, but a clean mhgen
// program cannot — so any verdict here is an oracle false positive (the
// result recomputation disagreeing with the matcher's own snapshots),
// never a real race.
func FuzzValueOracle(f *testing.F) {
	for seed := uint64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		gp := mhgen.Generate(mhgen.Config{
			Seed: seed,
			Bug:  workload.BugNone,
			Size: mhgen.Size(seed % 2),
		})
		prog, err := parser.Parse(gp.Name+".mh", gp.Source)
		if err != nil {
			t.Fatalf("clean generated program failed to parse: %v", err)
		}
		rep := explore.ExploreSession(interp.NewSession(prog, interp.Options{
			Procs:      gp.Procs,
			Threads:    gp.Threads,
			MaxSteps:   200_000,
			ValueCheck: true,
		}), explore.Options{
			Strategy:  explore.StrategyRandom,
			Schedules: 4,
			Seed:      int64(seed),
		})
		if v := rep.Verdict(interp.OutcomeValueError); v != nil {
			t.Fatalf("value oracle fired on a clean program (seed %d, schedule %s): %s\n%s",
				seed, v.Schedule, v.Sample, gp.Source)
		}
	})
}

// FuzzExplore: schedule exploration never panics, hangs, or goes
// nondeterministic on any parseable program — including the planted-bug
// corpus under testdata/fuzz. Sampling must repeat exactly; the DFS
// must render byte-identically at one and four workers whenever both
// drain their frontier within the budget.
func FuzzExplore(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := parser.Parse("fuzz.mh", src)
		if err != nil {
			return
		}
		opts := explore.Options{
			Strategy:  explore.StrategyRandom,
			Schedules: 3,
			Procs:     2,
			Threads:   2,
			MaxSteps:  20_000,
		}
		a := explore.Explore(prog, opts)
		if a.Schedules != 3 {
			t.Fatalf("ran %d schedules, want 3", a.Schedules)
		}
		if b := explore.Explore(prog, opts); a.String() != b.String() {
			t.Fatalf("exploration not deterministic for:\n%s\n-- a --\n%s-- b --\n%s", src, a, b)
		}

		opts.Strategy, opts.Schedules, opts.Workers = explore.StrategyDFS, 16, 1
		w1 := explore.Explore(prog, opts)
		opts.Workers = 4
		w4 := explore.Explore(prog, opts)
		for _, r := range []*explore.Report{w1, w4} {
			if r.Schedules == 0 || r.Schedules > 16 {
				t.Fatalf("DFS ran %d schedules, want 1..16", r.Schedules)
			}
		}
		if w1.Exhausted && w4.Exhausted && w1.String() != w4.String() {
			t.Fatalf("exhausted DFS differs across workers for:\n%s\n-- workers=1 --\n%s-- workers=4 --\n%s", src, w1, w4)
		}
	})
}
