package diff

import (
	"strings"
	"testing"

	"parcoach"
	"parcoach/internal/mhgen"
	"parcoach/internal/workload"
)

// TestDifferentialSound runs a compact seed sweep and enforces the
// soundness contract (the big 200-seed sweep with the golden matrix
// lives in the module root's fuzz_test.go).
func TestDifferentialSound(t *testing.T) {
	seen := make(map[Label]int)
	byBug := make(map[workload.Bug]int)
	for seed := uint64(0); seed < 70; seed++ {
		gp := mhgen.FromSeed(seed)
		row := Evaluate(gp, Options{Workers: 2})
		if len(row.Violations) > 0 {
			t.Fatalf("seed %d: %v\nreduced repro:\n%s",
				seed, row.Violations, ReduceFailure(gp, Options{Workers: 2}))
		}
		if row.Label == LabelFalseNegative {
			t.Fatalf("seed %d (%s): planted bug escaped both layers\n%s",
				seed, gp.Bug, gp.Source)
		}
		seen[row.Label]++
		byBug[gp.Bug]++
	}
	if seen[LabelTrueNegative] == 0 {
		t.Error("no clean program evaluated")
	}
	if seen[LabelBoth]+seen[LabelStatic]+seen[LabelDynamic] == 0 {
		t.Error("no planted bug evaluated")
	}
	for _, bug := range workload.AllBugs {
		if byBug[bug] == 0 {
			t.Errorf("bug class %s never generated in the sweep", bug)
		}
	}
}

// TestEvaluateWorkerIndependence: the full differential verdict — not
// just the compile — is identical at any worker-pool width.
func TestEvaluateWorkerIndependence(t *testing.T) {
	for _, seed := range []uint64{0, 1, 2, 9, 33, 60} {
		gp := mhgen.FromSeed(seed)
		r1 := Evaluate(gp, Options{Workers: 1})
		r8 := Evaluate(gp, Options{Workers: 8})
		if r1.String() != r8.String() {
			t.Errorf("seed %d: verdict differs by worker count:\n  %s\n  %s", seed, r1, r8)
		}
	}
}

func TestEvaluateCleanProgramOutcomes(t *testing.T) {
	gp := mhgen.Generate(mhgen.Config{Seed: 14, Bug: workload.BugNone})
	row := Evaluate(gp, Options{})
	if row.Full != parcoach.RunClean {
		t.Errorf("clean program full outcome = %s", row.Full)
	}
	if row.Baseline != "clean" {
		t.Errorf("clean program baseline outcome = %s", row.Baseline)
	}
}

func TestEvaluateBuggyBaselineNotRecorded(t *testing.T) {
	gp := mhgen.Generate(mhgen.Config{Seed: 5, Bug: workload.BugMismatchedKinds})
	row := Evaluate(gp, Options{})
	if row.Baseline != "-" {
		t.Errorf("buggy baseline outcome must be masked for golden stability, got %q", row.Baseline)
	}
}

func TestReduceFailurePreservesSignature(t *testing.T) {
	gp := mhgen.Generate(mhgen.Config{Seed: 11, Bug: workload.BugEarlyReturn})
	opts := Options{Workers: 2}
	orig := Evaluate(gp, opts)
	red := ReduceFailure(gp, opts)
	if lr, lo := strings.Count(red, "\n"), strings.Count(gp.Source, "\n"); lr >= lo {
		t.Fatalf("no shrink: %d -> %d lines", lo, lr)
	}
	probe := *gp
	probe.Source = red
	got := Evaluate(&probe, opts)
	if signature(got) != signature(orig) {
		t.Fatalf("reduced signature %q != original %q\n%s", signature(got), signature(orig), red)
	}
}

// TestReduceFailurePreservesSchedule: reducing a schedule-only failure
// must keep the reduced reproducer failing under the SAME schedule
// token. The previous keep predicate re-judged candidates only by
// verdict signature, and for this exact seed it shrank the torn-buffer
// program into one whose exploration first fails under a different
// schedule — the published (source, token) pair no longer reproduced.
func TestReduceFailurePreservesSchedule(t *testing.T) {
	gp := mhgen.Generate(mhgen.Config{Seed: 2, Bug: workload.BugTornBuffer})
	opts := Options{Workers: 4}
	ref := Evaluate(gp, opts)
	if ref.FailSchedule == "" {
		t.Fatalf("torn-buffer program has no failing schedule: %s", ref)
	}
	red := ReduceFailure(gp, opts)
	if len(red) >= len(gp.Source) {
		t.Fatalf("no shrink: %d -> %d bytes", len(gp.Source), len(red))
	}
	probe := *gp
	probe.Source = red
	if got := Evaluate(&probe, opts); signature(got) != signature(ref) {
		t.Fatalf("reduced signature %q != original %q\n%s", signature(got), signature(ref), red)
	}
	if !replayFails(&probe, ref.FailSchedule, opts) {
		t.Fatalf("reduced reproducer no longer fails under the original schedule %s:\n%s",
			ref.FailSchedule, red)
	}
}

// TestEvaluateValueBugRows: the value-bug classes land on the dynamic
// side of the matrix. The root and op mismatches are schedule-independent
// — the oracle stops the reference run itself — while the torn source
// buffer needs the exploration pass and records which schedule failed.
func TestEvaluateValueBugRows(t *testing.T) {
	opts := Options{Workers: 4}
	for _, bug := range []workload.Bug{workload.BugWrongRoot, workload.BugWrongOp} {
		row := Evaluate(mhgen.Generate(mhgen.Config{Seed: 1, Bug: bug}), opts)
		if row.Full != parcoach.RunValueError {
			t.Errorf("%s: reference run outcome = %s, want value-error: %s", bug, row.Full, row)
		}
		if row.Label != LabelDynamic && row.Label != LabelBoth {
			t.Errorf("%s: label = %s, want a dynamic detection: %s", bug, row.Label, row)
		}
	}
	torn := Evaluate(mhgen.Generate(mhgen.Config{Seed: 1, Bug: workload.BugTornBuffer}), opts)
	if torn.Explored == "-" || torn.FirstDetect == "-" {
		t.Errorf("torn-buffer not judged by exploration: %s", torn)
	}
	if torn.FailSchedule == "" {
		t.Errorf("torn-buffer detection did not record its failing schedule: %s", torn)
	}
	if torn.Label != LabelDynamic && torn.Label != LabelBoth {
		t.Errorf("torn-buffer label = %s, want a dynamic detection: %s", torn.Label, torn)
	}
}

func TestMatrixFormat(t *testing.T) {
	var m Matrix
	for seed := uint64(0); seed < 21; seed++ { // three full bug cycles
		m.Rows = append(m.Rows, Evaluate(mhgen.FromSeed(seed), Options{Workers: 2}))
	}
	out := m.Format()
	for _, want := range []string{
		"bug class", "none", "early-return", "mismatched-kinds", "per-seed verdicts:",
		"seed=0", "TN",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("matrix missing %q:\n%s", want, out)
		}
	}
	if vs := m.Violations(); len(vs) != 0 {
		t.Errorf("unexpected violations: %v", vs)
	}
	if fn := m.FalseNegatives(); len(fn) != 0 {
		t.Errorf("unexpected false negatives: %+v", fn)
	}
}

// TestEvaluateExplorationColumns: schedule-dependent bug classes get an
// exploration verdict — the schedules-run and first-detection columns —
// while the rank-divergence classes (schedule-independent) skip the
// extra runs.
func TestEvaluateExplorationColumns(t *testing.T) {
	cs := Evaluate(mhgen.Generate(mhgen.Config{Seed: 2, Bug: workload.BugConcurrentSingles}), Options{Workers: 2})
	if cs.Explored == "-" {
		t.Errorf("concurrent-singles not explored: %s", cs)
	}
	if cs.FirstDetect == "-" {
		t.Errorf("concurrent-singles: exploration never hit the planted check: %s", cs)
	}
	er := Evaluate(mhgen.Generate(mhgen.Config{Seed: 2, Bug: workload.BugEarlyReturn}), Options{Workers: 2})
	if er.Explored != "-" || er.FirstDetect != "-" {
		t.Errorf("schedule-independent class explored: %s", er)
	}
	clean := Evaluate(mhgen.Generate(mhgen.Config{Seed: 2, Bug: workload.BugNone}), Options{Workers: 2})
	if clean.Explored == "-" {
		t.Errorf("clean program skipped the all-schedules-clean check: %s", clean)
	}
	if clean.FirstDetect != "-" || len(clean.Violations) > 0 {
		t.Errorf("clean program failed under exploration: %s", clean)
	}
}

// TestShardedSweepEqualsUnsharded: evaluating the shards of a seed
// range and merging their rows renders the exact matrix of the
// unsharded sweep — the contract that lets CI partition the 200-seed
// matrix across jobs.
func TestShardedSweepEqualsUnsharded(t *testing.T) {
	const start, n = 0, 30
	opts := Options{Workers: 2}
	var whole Matrix
	for s := uint64(start); s < start+n; s++ {
		whole.Rows = append(whole.Rows, Evaluate(mhgen.FromSeed(s), opts))
	}
	var merged Matrix
	for shard := 0; shard < 3; shard++ {
		for _, s := range mhgen.ShardSeeds(start, n, 3, shard) {
			merged.Rows = append(merged.Rows, Evaluate(mhgen.FromSeed(s), opts))
		}
	}
	if a, b := whole.Format(), merged.Format(); a != b {
		t.Fatalf("sharded union diverges from the unsharded matrix:\n--- unsharded\n%s--- sharded union\n%s", a, b)
	}
}
