package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"parcoach"
	"parcoach/internal/explore"
)

// The test binary doubles as the CLI: when re-exec'd with
// HYBRIDRUN_BE_CLI=1 it runs main() on its arguments, so the table
// tests below exercise the real flag parsing, exit codes and output
// streams without a separate build step.
func TestMain(m *testing.M) {
	if os.Getenv("HYBRIDRUN_BE_CLI") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "HYBRIDRUN_BE_CLI=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	code = 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errb.String(), code
}

const cliCleanSrc = `
func main() {
	MPI_Init()
	MPI_Barrier()
	MPI_Finalize()
}`

// cliBuggySrc is rank-dependently buggy: instrumented runs abort at the
// planted check, uninstrumented runs fail in the runtime itself — the
// two explore paths are observably different.
const cliBuggySrc = `
func main() {
	MPI_Init()
	var x = 0
	if rank() == 0 {
		MPI_Bcast(x)
	}
	parallel num_threads(2) {
		MPI_Barrier()
	}
	MPI_Finalize()
}`

func writeProgram(t *testing.T, name, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFlagConflicts: contradictory flag combinations exit 2 with a
// message naming the conflict, instead of silently ignoring one flag.
func TestFlagConflicts(t *testing.T) {
	clean := writeProgram(t, "clean.mh", cliCleanSrc)
	tests := []struct {
		name     string
		args     []string
		wantCode int
		wantErr  string // substring of stderr; "" means stderr not checked
	}{
		{"replay+explore", []string{"-replay", "rr", "-explore", "dfs"}, 2, "mutually exclusive"},
		{"replay+explore-random", []string{"-explore", "random", "-replay", "rand:7"}, 2, "mutually exclusive"},
		// There is one DFS: the removed frontier selector is a usage error.
		{"frontier-without-explore", []string{"-dfs-frontier", "wave"}, 2, "not defined: -dfs-frontier"},
		{"frontier-with-sampling", []string{"-explore", "random", "-dfs-frontier", "dpor"}, 2, "not defined: -dfs-frontier"},
		{"frontier-with-rr", []string{"-explore", "rr", "-dfs-frontier", "steal"}, 2, "not defined: -dfs-frontier"},
		{"negative-timeout", []string{"-timeout", "-1s"}, 2, "non-negative"},
		// Valid combinations stay valid.
		{"plain-run", nil, 0, ""},
		{"replay-alone", []string{"-replay", "rr"}, 0, ""},
		{"explore-dfs", []string{"-explore", "dfs", "-schedules", "8"}, 0, ""},
		{"frontier-default-untouched", []string{"-explore", "random", "-schedules", "4"}, 0, ""},
		// A generous -timeout composes with everything and never fires on a
		// fast clean program.
		{"timeout-with-run", []string{"-timeout", "1m"}, 0, ""},
		{"timeout-with-replay", []string{"-timeout", "1m", "-replay", "rr"}, 0, ""},
		{"timeout-with-explore", []string{"-timeout", "1m", "-explore", "rr"}, 0, ""},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, stderr, code := runCLI(t, append(tc.args, clean)...)
			if code != tc.wantCode {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, tc.wantCode, stderr)
			}
			if tc.wantErr != "" && !strings.Contains(stderr, tc.wantErr) {
				t.Errorf("stderr missing %q:\n%s", tc.wantErr, stderr)
			}
		})
	}
}

// cliSpinSrc loops far past any test's patience — the program -timeout
// has to interrupt.
const cliSpinSrc = `
func main() {
	MPI_Init()
	var i = 0
	while i < 2000000000 {
		i = i + 1
	}
	MPI_Finalize()
}`

// TestTimeoutExitCode: a run or exploration that exceeds -timeout exits
// 3 (distinct from verification failure's 1 and usage's 2), names the
// timeout on stderr, and — for explorations — still prints the partial
// report.
func TestTimeoutExitCode(t *testing.T) {
	spin := writeProgram(t, "spin.mh", cliSpinSrc)

	t.Run("run", func(t *testing.T) {
		_, stderr, code := runCLI(t, "-timeout", "100ms", spin)
		if code != 3 {
			t.Fatalf("timed-out run exited %d, want 3; stderr:\n%s", code, stderr)
		}
		if !strings.Contains(stderr, "watchdog") {
			t.Errorf("stderr does not name the watchdog:\n%s", stderr)
		}
	})
	t.Run("explore", func(t *testing.T) {
		stdout, stderr, code := runCLI(t, "-timeout", "100ms", "-explore", "rr", spin)
		if code != 3 {
			t.Fatalf("timed-out exploration exited %d, want 3; stderr:\n%s", code, stderr)
		}
		if !strings.Contains(stderr, "timed out") {
			t.Errorf("stderr does not report the timeout:\n%s", stderr)
		}
		if !strings.Contains(stdout, "canceled=true") {
			t.Errorf("partial report missing its canceled marker:\n%s", stdout)
		}
	})
}

// reportOutcomes extracts the verdict outcome names from the CLI's
// exploration report ("  <outcome>  ×<count>" lines).
func reportOutcomes(report string) []string {
	var outcomes []string
	for _, line := range strings.Split(report, "\n") {
		if !strings.HasPrefix(line, "  ") || !strings.Contains(line, "×") {
			continue
		}
		if f := strings.Fields(line); len(f) >= 2 {
			outcomes = append(outcomes, f[0])
		}
	}
	return outcomes
}

// TestExploreUninstrumented: -instrument=false -explore must (a) still
// print the static warnings — the compile stays full-analysis — and (b)
// explore the pristine tree, matching a direct exploration of the
// program's uninstrumented session. Pre-fix, the flag compiled baseline: no warnings, and the
// "uninstrumented" exploration was an accident of the missing tree.
func TestExploreUninstrumented(t *testing.T) {
	buggy := writeProgram(t, "buggy.mh", cliBuggySrc)
	stdout, stderr, code := runCLI(t, "-instrument=false", "-explore", "rr", buggy)
	if code != 1 {
		t.Fatalf("buggy exploration exited %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stderr, "warning:") {
		t.Errorf("-instrument=false -explore lost the static warnings; stderr:\n%s", stderr)
	}

	prog, err := parcoach.Compile("buggy.mh", cliBuggySrc, parcoach.Options{Mode: parcoach.ModeFull})
	if err != nil {
		t.Fatal(err)
	}
	eopts := parcoach.ExploreOptions{Strategy: parcoach.ExploreRoundRobin}
	want := explore.ExploreSession(prog.NewSession(eopts.RunOptions(), true), eopts)
	var wantOutcomes []string
	for _, v := range want.Verdicts {
		wantOutcomes = append(wantOutcomes, v.Outcome.String())
	}
	got := reportOutcomes(stdout)
	if strings.Join(got, ",") != strings.Join(wantOutcomes, ",") {
		t.Errorf("CLI verdicts %v, direct uninstrumented exploration %v", got, wantOutcomes)
	}

	// The instrumented exploration of the same program differs — the
	// planted check stops the run first — proving the flag genuinely
	// switches trees rather than both paths landing on the same one.
	wantInst := prog.Explore(eopts)
	instOutcomes := make([]string, 0, len(wantInst.Verdicts))
	for _, v := range wantInst.Verdicts {
		instOutcomes = append(instOutcomes, v.Outcome.String())
	}
	if strings.Join(got, ",") == strings.Join(instOutcomes, ",") {
		t.Skipf("instrumented and uninstrumented verdicts coincide (%v); tree switch not observable here", got)
	}
	stdoutInst, _, _ := runCLI(t, "-explore", "rr", buggy)
	if gotInst := reportOutcomes(stdoutInst); strings.Join(gotInst, ",") != strings.Join(instOutcomes, ",") {
		t.Errorf("instrumented CLI verdicts %v, direct Explore %v", gotInst, instOutcomes)
	}
}

// cliElectSrc has one elected thread of a two-thread team call
// MPI_Barrier: legal under MPI_THREAD_MULTIPLE, a usage error under
// MPI_THREAD_FUNNELED whenever the election picks a worker thread.
const cliElectSrc = `
func main() {
	MPI_Init()
	parallel num_threads(2) {
		single {
			MPI_Barrier()
		}
	}
	print(rank())
	MPI_Finalize()
}`

// reportCounts maps each verdict outcome of the CLI's exploration
// report to its schedule count.
func reportCounts(report string) map[string]int {
	counts := make(map[string]int)
	for _, line := range strings.Split(report, "\n") {
		f := strings.Fields(line)
		if strings.HasPrefix(line, "  ") && len(f) >= 2 && strings.HasPrefix(f[1], "×") {
			counts[f[0]], _ = strconv.Atoi(strings.TrimPrefix(f[1], "×"))
		}
	}
	return counts
}

// TestExploreRunFlags: -level and -policy reach every explored run,
// and explored runs print no program output of their own.
func TestExploreRunFlags(t *testing.T) {
	elect := writeProgram(t, "elect.mh", cliElectSrc)
	programOutput := regexp.MustCompile(`(?m)^r\d+:`)
	tests := []struct {
		name      string
		args      []string
		wantCode  int
		schedules int
		verdicts  map[string]int
	}{
		{"multiple", nil, 0, 9, map[string]int{"clean": 9}},
		{"funneled", []string{"-level", "funneled"}, 1, 7, map[string]int{"clean": 4, "mpi-error": 3}},
		// Round-robin election hands the single to a worker thread on
		// one rank in every schedule.
		{"funneled-round-robin", []string{"-level", "funneled", "-policy", "round-robin"}, 1, 3,
			map[string]int{"mpi-error": 3}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			args := append(append([]string{"-explore", "dfs"}, tc.args...), elect)
			stdout, stderr, code := runCLI(t, args...)
			if code != tc.wantCode {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.wantCode, stdout, stderr)
			}
			if !strings.Contains(stdout, " schedules="+strconv.Itoa(tc.schedules)+" exhausted=true") {
				t.Errorf("want %d exhausted schedules:\n%s", tc.schedules, stdout)
			}
			if got := reportCounts(stdout); !reflect.DeepEqual(got, tc.verdicts) {
				t.Errorf("verdicts %v, want %v:\n%s", got, tc.verdicts, stdout)
			}
			if tc.verdicts["mpi-error"] > 0 && !strings.Contains(stdout, "MPI_THREAD_FUNNELED") {
				t.Errorf("first failure does not name MPI_THREAD_FUNNELED:\n%s", stdout)
			}
			if programOutput.MatchString(stdout) {
				t.Errorf("explored runs printed program output:\n%s", stdout)
			}
		})
	}
}

// TestReplayDivergedExitCode: a replay that does not reproduce its
// token exits 2 with "replay diverged", never as a run of its own. That
// holds when the token names a thread that is not enabled at a branch
// point, and when the run passes fewer branch points than the token
// holds. The exact token of the run replays clean.
func TestReplayDivergedExitCode(t *testing.T) {
	const file = "../../examples/quickstart/clean.mh"
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := parcoach.Compile(file, string(src), parcoach.Options{Mode: parcoach.ModeFull})
	if err != nil {
		t.Fatal(err)
	}
	// The first DFS schedule is the replay of the empty trace: the
	// lowest enabled thread at every branch point. Its token names
	// every branch point the run passes.
	rep := explore.ExploreSession(prog.NewSession(parcoach.RunOptions{Procs: 2, Threads: 2, MaxSteps: explore.DefaultMaxSteps}, false),
		parcoach.ExploreOptions{Strategy: explore.StrategyDFS, Schedules: 1, Workers: 1})
	if len(rep.Verdicts) != 1 || rep.Verdicts[0].Outcome != parcoach.RunClean {
		t.Fatalf("first DFS schedule of %s: %+v", file, rep.Verdicts)
	}
	exact := rep.Verdicts[0].Schedule
	for _, tc := range []struct {
		name, token string
		wantCode    int
	}{
		{"exact", exact, 0},
		{"disabled-thread", "trace:9", 2},
		{"longer-than-run", exact + ".0", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := runCLI(t, "-replay", tc.token, file)
			if code != tc.wantCode {
				t.Fatalf("-replay %q: exit %d, want %d\nstdout:\n%s\nstderr:\n%s", tc.token, code, tc.wantCode, stdout, stderr)
			}
			if diverged := strings.Contains(stderr, "replay diverged"); diverged != (tc.wantCode == 2) {
				t.Errorf("-replay %q: stderr names a divergence: %t, want %t:\n%s", tc.token, diverged, tc.wantCode == 2, stderr)
			}
		})
	}
}
