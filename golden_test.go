package parcoach_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"parcoach"
	"parcoach/internal/sched"
	"parcoach/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// goldenProgram is one compile-and-run subject: every .mh file under
// examples/ plus the generator-backed programs the epcc and nasmz
// examples compile (at smoke-test scale).
type goldenProgram struct {
	name    string
	source  string
	procs   int
	threads int
}

func goldenPrograms(t *testing.T) []goldenProgram {
	t.Helper()
	var progs []goldenProgram
	paths, err := filepath.Glob(filepath.Join("examples", "*", "*.mh"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no example .mh files found")
	}
	sort.Strings(paths)
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Base(filepath.Dir(path))
		base := strings.TrimSuffix(filepath.Base(path), ".mh")
		progs = append(progs, goldenProgram{
			name:    dir + "-" + base,
			source:  string(src),
			procs:   2,
			threads: 2,
		})
	}
	for _, gen := range []struct {
		suffix string
		w      workload.Workload
	}{
		{"clean", workload.EPCC(workload.ScaleS, workload.BugNone)},
		{"clean", workload.BTMZ(workload.ScaleS, workload.BugNone)},
		{"earlyreturn", workload.BTMZ(workload.ScaleS, workload.BugEarlyReturn)},
	} {
		w := gen.w
		progs = append(progs, goldenProgram{
			name: w.Name + "-" + gen.suffix, source: w.Source, procs: w.Procs, threads: w.Threads,
		})
	}
	return progs
}

// describe renders the deterministic compile-and-run record of one
// program: per-mode diagnostics and artifact stats, and the run outcome.
// Run output lines are sorted (process/thread interleaving is not part of
// the contract) and recorded only for successful runs. mkSched, when
// non-nil, runs each run under the returned scheduler (a fresh one per
// run); nil runs the default schedule.
func describe(t *testing.T, gp goldenProgram, mkSched func() sched.Scheduler) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "program %s (procs=%d threads=%d)\n", gp.name, gp.procs, gp.threads)
	for _, mode := range []parcoach.Mode{parcoach.ModeBaseline, parcoach.ModeAnalyze, parcoach.ModeFull} {
		p, err := parcoach.Compile(gp.name+".mh", gp.source, parcoach.Options{Mode: mode, Workers: 4})
		if err != nil {
			t.Fatalf("%s %s: %v", gp.name, mode, err)
		}
		fmt.Fprintf(&b, "\n== mode %s ==\n", mode)
		fmt.Fprintf(&b, "functions=%d statements=%d cfg=%d/%d dead=%d\n",
			p.Stats.Functions, p.Stats.Statements, p.Stats.CFGNodes, p.Stats.CFGEdges, p.Stats.DeadNodes)
		fmt.Fprintf(&b, "folds=%+v\n", p.Stats.Folds)
		if mode >= parcoach.ModeFull {
			fmt.Fprintf(&b, "checks=%+v instrumented=%v\n", p.Stats.Checks, p.Instrumented != nil)
		}
		if diags := p.Diagnostics(); len(diags) > 0 {
			fmt.Fprintln(&b, "diagnostics:")
			for _, d := range diags {
				fmt.Fprintf(&b, "  %s\n", d)
			}
		} else {
			fmt.Fprintln(&b, "diagnostics: none")
		}
		var s sched.Scheduler
		if mkSched != nil {
			s = mkSched()
		}
		res := p.NewSession(parcoach.RunOptions{Procs: gp.procs, Threads: gp.threads}, false).Run(s)
		if res.Err != nil {
			fmt.Fprintln(&b, "run: error")
		} else {
			fmt.Fprintln(&b, "run: ok")
			lines := strings.Split(strings.TrimRight(res.Output, "\n"), "\n")
			sort.Strings(lines)
			for _, line := range lines {
				if line != "" {
					fmt.Fprintf(&b, "  %s\n", line)
				}
			}
		}
	}
	return b.String()
}

// TestGoldenExamples locks the compile-and-run behavior of every example
// program in all three modes against testdata/golden. Regenerate with
// `go test -run TestGoldenExamples -update .`.
func TestGoldenExamples(t *testing.T) {
	for _, gp := range goldenPrograms(t) {
		t.Run(gp.name, func(t *testing.T) {
			checkGolden(t, gp.name, describe(t, gp, nil))
		})
	}
}

// checkGolden compares got with testdata/golden/<name>.golden, or
// rewrites that file when the test runs with -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("golden mismatch for %s:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestGoldenExamplesSerializedRoundRobin is the scheduler regression
// lock: running every golden program under the round-robin reference
// scheduler must be byte-identical to the golden files, which the
// default schedule also matches — the pluggable scheduler changes
// *which* interleavings are reachable, not what these programs compute.
func TestGoldenExamplesSerializedRoundRobin(t *testing.T) {
	for _, gp := range goldenPrograms(t) {
		t.Run(gp.name, func(t *testing.T) {
			got := describe(t, gp, func() sched.Scheduler { return sched.NewRoundRobin() })
			path := filepath.Join("testdata", "golden", gp.name+".golden")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run TestGoldenExamples with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("serialized round-robin diverges from the pre-refactor golden for %s:\n--- got ---\n%s\n--- want ---\n%s",
					gp.name, got, want)
			}
		})
	}
}
