package report

import (
	"errors"
	"time"

	"parcoach"
	"parcoach/internal/core"
	"parcoach/internal/interp"
	"parcoach/internal/monitor"
	"parcoach/internal/mpi"
	"parcoach/internal/verifier"
	"strings"
	"testing"

	"parcoach/internal/workload"
)

func TestFigure1Table(t *testing.T) {
	out, err := Figure1(workload.ScaleS, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"BT-MZ", "SP-MZ", "LU-MZ", "EPCC", "HERA", "ovh-warn%", "ovh-code%"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure1 output missing %q:\n%s", want, out)
		}
	}
}

func TestMeasureCompileOrdering(t *testing.T) {
	ct, err := MeasureCompile(workload.BTMZ(workload.ScaleS, workload.BugNone), 3)
	if err != nil {
		t.Fatal(err)
	}
	// By construction the modes nest: baseline ⊆ analyze ⊆ full.
	if ct.Baseline <= 0 || ct.Analyze < ct.Baseline || ct.Full < ct.Analyze {
		t.Errorf("mode times must nest: %+v", ct)
	}
	if ct.OverheadAnalyze() < 0 || ct.OverheadFull() < ct.OverheadAnalyze() {
		t.Errorf("overheads must be ordered: %f %f", ct.OverheadAnalyze(), ct.OverheadFull())
	}
}

func TestWarningInventoryTable(t *testing.T) {
	out, err := WarningInventory(workload.ScaleS)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "rank-dependent-collective") || !strings.Contains(out, "HERA") {
		t.Errorf("inventory incomplete:\n%s", out)
	}
	// Seeded threading bugs must show their kinds.
	if !strings.Contains(out, "multithreaded-collective") {
		t.Errorf("inventory missing threading kinds:\n%s", out)
	}
}

func TestDetectionMatrixTable(t *testing.T) {
	out, err := DetectionMatrix()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"none", "completes",
		"verifier: multithreaded-collective",
		"verifier: concurrent-collectives",
		"verifier: collective-mismatch",
		"value oracle: wrong-root",
		"value oracle: wrong-op",
		"explored: value oracle @ rand:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("detection matrix missing %q:\n%s", want, out)
		}
	}
}

func TestRuntimeOverheadTable(t *testing.T) {
	out, err := RuntimeOverhead(workload.ScaleS, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "selective") || !strings.Contains(out, "full-instr") {
		t.Errorf("overhead table incomplete:\n%s", out)
	}
}

func TestAblationTable(t *testing.T) {
	out, err := Ablation(workload.ScaleS, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "warns sel/raw") {
		t.Errorf("ablation table incomplete:\n%s", out)
	}
}

func TestFmtDur(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{0, "0.0µs"},
		{500 * time.Nanosecond, "0.5µs"},
		{time.Microsecond, "1.0µs"},
		{999 * time.Microsecond, "999.0µs"},
		{time.Millisecond, "1.00ms"},
		{1500 * time.Microsecond, "1.50ms"},
		{2 * time.Second, "2000.00ms"},
	}
	for _, c := range cases {
		if got := fmtDur(c.d); got != c.want {
			t.Errorf("fmtDur(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestPct(t *testing.T) {
	cases := []struct {
		mode, base time.Duration
		want       float64
	}{
		{110, 100, 10},
		{100, 100, 0},
		{50, 100, -50},
		{300, 100, 200},
		{100, 0, 0},  // zero baseline must not divide
		{100, -5, 0}, // negative baseline likewise
	}
	for _, c := range cases {
		if got := pct(c.mode, c.base); !close(got, c.want) {
			t.Errorf("pct(%d, %d) = %f, want %f", c.mode, c.base, got, c.want)
		}
	}
}

// close compares percentages with a float tolerance.
func close(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

func TestKindSummaryOrderingAndCounts(t *testing.T) {
	mk := func(k core.DiagKind) parcoach.Diagnostic { return parcoach.Diagnostic{Kind: k} }
	cases := []struct {
		name  string
		diags []parcoach.Diagnostic
		want  string
	}{
		{"empty", nil, "-"},
		{"single", []parcoach.Diagnostic{mk(core.DiagCollectiveMismatch)}, "collective-mismatch×1"},
		{
			// Kinds must come out in DiagKind order however they arrive.
			"sorted-by-kind",
			[]parcoach.Diagnostic{
				mk(core.DiagCollectiveMismatch), mk(core.DiagMultithreadedCollective),
				mk(core.DiagCollectiveMismatch), mk(core.DiagConcurrentCollectives),
			},
			"multithreaded-collective×1, concurrent-collectives×1, collective-mismatch×2",
		},
		{
			"info-kind-included",
			[]parcoach.Diagnostic{mk(core.DiagThreadLevel), mk(core.DiagThreadLevel)},
			"thread-level×2",
		},
	}
	for _, c := range cases {
		if got := kindSummary(c.diags); got != c.want {
			t.Errorf("%s: kindSummary = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestDescribeRunError(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want string
	}{
		{"nil", nil, "completes"},
		{"verifier", &verifier.Error{Kind: verifier.ErrCollectiveMismatch}, "verifier: collective-mismatch"},
		{"verifier-mt", &verifier.Error{Kind: verifier.ErrMultithreadedCollective}, "verifier: multithreaded-collective"},
		{"mismatch", &mpi.MismatchError{Calls: map[int]string{}}, "runtime mismatch"},
		{"concurrent", &mpi.ConcurrentCallError{OpA: "a", OpB: "b"}, "runtime concurrent calls"},
		{"usage", &mpi.UsageError{Msg: "x"}, "runtime usage error"},
		{"deadlock", &monitor.DeadlockError{}, "deadlock (detected)"},
		{"budget", &interp.StepLimitError{Limit: 100}, "step budget exhausted"},
		{"other", errors.New("boom"), "error"},
	}
	for _, c := range cases {
		if got := describeRunError(c.err); got != c.want {
			t.Errorf("%s: describeRunError = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompileTimesOverheadEdgeCases(t *testing.T) {
	cases := []struct {
		name                  string
		ct                    CompileTimes
		wantAnalyze, wantFull float64
	}{
		{"zero-baseline", CompileTimes{Baseline: 0, Analyze: 10, Full: 20}, 0, 0},
		{"no-overhead", CompileTimes{Baseline: 100, Analyze: 100, Full: 100}, 0, 0},
		{"ordered", CompileTimes{Baseline: 100, Analyze: 110, Full: 121}, 10, 21},
	}
	for _, c := range cases {
		if got := c.ct.OverheadAnalyze(); !close(got, c.wantAnalyze) {
			t.Errorf("%s: OverheadAnalyze = %f, want %f", c.name, got, c.wantAnalyze)
		}
		if got := c.ct.OverheadFull(); !close(got, c.wantFull) {
			t.Errorf("%s: OverheadFull = %f, want %f", c.name, got, c.wantFull)
		}
	}
}

// TestDetectionMatrixMicroProcs locks the per-class run parameters the
// matrix text advertises: the intra-process race classes run on one
// process and still get caught by the planted checks.
func TestDetectionMatrixMicroProcs(t *testing.T) {
	out, err := DetectionMatrix()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(out, "\n")
	found := 0
	for _, line := range lines {
		if strings.HasPrefix(line, "concurrent-singles") || strings.HasPrefix(line, "sections-collectives") {
			found++
			if !strings.Contains(line, "verifier: concurrent-collectives") {
				t.Errorf("intra-process race line lost its dynamic catch: %q", line)
			}
		}
	}
	if found != 2 {
		t.Errorf("expected 2 intra-process race rows, found %d:\n%s", found, out)
	}
}
