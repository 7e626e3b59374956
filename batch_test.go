package parcoach_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"parcoach"
	"parcoach/internal/workload"
)

// batchFiles builds a mixed compile workload: the five Figure 1
// benchmarks, the seeded micro-error corpus, and a couple of scaled
// variants — 16 programs, each with several functions.
func batchFiles() []parcoach.File {
	var files []parcoach.File
	for _, w := range workload.Figure1Set(workload.ScaleS) {
		files = append(files, parcoach.File{Name: w.Name, Source: w.Source})
	}
	for _, bug := range workload.AllBugs {
		w := workload.Micro(bug)
		files = append(files, parcoach.File{Name: w.Name, Source: w.Source})
	}
	for _, w := range []workload.Workload{
		workload.BTMZ(workload.ScaleA, workload.BugNone),
		workload.EPCC(workload.ScaleA, workload.BugNone),
		workload.HERA(workload.ScaleA, workload.BugEarlyReturn),
		workload.SPMZ(workload.ScaleA, workload.BugRankDependentCollective),
		workload.LUMZ(workload.ScaleA, workload.BugMismatchedKinds),
	} {
		files = append(files, parcoach.File{Name: "a-" + w.Name, Source: w.Source})
	}
	return files
}

// diagString renders a program's diagnostics into one comparable blob.
func diagString(p *parcoach.Program) string {
	var b strings.Builder
	for _, d := range p.Diagnostics() {
		fmt.Fprintln(&b, d)
	}
	return b.String()
}

// TestCompileBatchMatchesSerial is the core determinism contract: a
// pooled batch compile produces byte-identical diagnostics and identical
// CompileStats to a serial compile of each file.
func TestCompileBatchMatchesSerial(t *testing.T) {
	files := batchFiles()
	if len(files) < 16 {
		t.Fatalf("want >= 16 files, have %d", len(files))
	}
	for _, mode := range []parcoach.Mode{parcoach.ModeBaseline, parcoach.ModeAnalyze, parcoach.ModeFull} {
		serialOpts := parcoach.Options{Mode: mode, Workers: 1}
		poolOpts := parcoach.Options{Mode: mode, Workers: 4}
		pooled, err := parcoach.CompileBatch(files, poolOpts)
		if err != nil {
			t.Fatalf("%s: batch: %v", mode, err)
		}
		for i, f := range files {
			serial, err := parcoach.Compile(f.Name, f.Source, serialOpts)
			if err != nil {
				t.Fatalf("%s: %s: %v", mode, f.Name, err)
			}
			p := pooled[i]
			if p == nil {
				t.Fatalf("%s: %s: pooled program missing", mode, f.Name)
			}
			if got, want := diagString(p), diagString(serial); got != want {
				t.Errorf("%s: %s: diagnostics differ\npooled:\n%s\nserial:\n%s", mode, f.Name, got, want)
			}
			if p.Stats != serial.Stats {
				t.Errorf("%s: %s: stats differ\npooled: %+v\nserial: %+v", mode, f.Name, p.Stats, serial.Stats)
			}
		}
	}
}

// TestCompileDeterministicAcrossRuns asserts two compiles of the same
// source yield identical diagnostic output (the parallel phases must not
// leak scheduling order into the result).
func TestCompileDeterministicAcrossRuns(t *testing.T) {
	w := workload.HERA(workload.ScaleS, workload.BugRankDependentCollective)
	first, err := parcoach.Compile(w.Name, w.Source, parcoach.Options{Mode: parcoach.ModeFull})
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Diagnostics()) == 0 {
		t.Fatal("workload must produce diagnostics for the comparison to mean anything")
	}
	for rep := 0; rep < 4; rep++ {
		again, err := parcoach.Compile(w.Name, w.Source, parcoach.Options{Mode: parcoach.ModeFull})
		if err != nil {
			t.Fatal(err)
		}
		if diagString(again) != diagString(first) {
			t.Fatalf("diagnostics differ between identical compiles:\n%s\nvs:\n%s",
				diagString(again), diagString(first))
		}
		if again.Stats != first.Stats {
			t.Fatalf("stats differ between identical compiles: %+v vs %+v", again.Stats, first.Stats)
		}
	}
}

// TestCompileBatchConcurrent compiles 16 programs concurrently on a wide
// pool; under `go test -race` this doubles as the pipeline's data-race
// certification.
func TestCompileBatchConcurrent(t *testing.T) {
	files := batchFiles()[:16]
	progs, err := parcoach.CompileBatch(files, parcoach.Options{Mode: parcoach.ModeFull, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range progs {
		if p == nil {
			t.Fatalf("program %d missing", i)
		}
		if len(p.Graphs) == 0 {
			t.Errorf("%s: no CFGs", p.Name)
		}
		if p.Stats.Functions == 0 || p.Stats.CFGNodes == 0 {
			t.Errorf("%s: stats empty: %+v", p.Name, p.Stats)
		}
		if p.Stats.IRInsts != 0 || p.Stats.Spills != 0 {
			t.Errorf("%s: deprecated IR stats written: %+v", p.Name, p.Stats)
		}
	}
}

// TestCompileBatchPartialFailure: bad files fail with joined errors while
// the good files still compile.
func TestCompileBatchPartialFailure(t *testing.T) {
	files := []parcoach.File{
		{Name: "good.mh", Source: "func main() { MPI_Init() MPI_Finalize() }"},
		{Name: "parse-error.mh", Source: "func main( {"},
		{Name: "sem-error.mh", Source: "func main() { x = 1 }"},
	}
	progs, err := parcoach.CompileBatch(files, parcoach.Options{Workers: 2})
	if err == nil {
		t.Fatal("batch with bad files must report an error")
	}
	if progs[0] == nil || progs[1] != nil || progs[2] != nil {
		t.Errorf("per-file results wrong: %v", progs)
	}
	msg := err.Error()
	if !strings.Contains(msg, "parse-error.mh") || !strings.Contains(msg, "sem-error.mh") {
		t.Errorf("joined error must name both failing files: %v", err)
	}
}

// TestPassTimingsPopulated pins the per-pass timing view: every mode
// records its stages under fixed names in execution order, ending at
// dce (bench/'s trace and probes and Timing's buckets key on these
// names), with nonzero total time, the cached graphs cover every
// function, and nothing writes the deprecated IR stats.
func TestPassTimingsPopulated(t *testing.T) {
	for _, tc := range []struct {
		mode parcoach.Mode
		want []string
	}{
		{parcoach.ModeBaseline, []string{"frontend", "fold", "cfg", "dce"}},
		{parcoach.ModeAnalyze, []string{"frontend", "fold", "cfg",
			"dominators", "analysis-begin", "analysis-prepare", "taint", "contexts", "summaries", "check", "analysis-finish",
			"dce"}},
		{parcoach.ModeFull, []string{"frontend", "fold", "cfg",
			"dominators", "analysis-begin", "analysis-prepare", "taint", "contexts", "summaries", "check", "analysis-finish",
			"instrument", "dce"}},
	} {
		p, err := parcoach.Compile("clean.mh", cleanSrc, parcoach.Options{Mode: tc.mode})
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		var sum int64
		for _, pt := range p.Timing.Passes {
			names = append(names, pt.Name)
			sum += int64(pt.Duration)
		}
		if !slices.Equal(names, tc.want) {
			t.Errorf("%s: passes %v, want %v", tc.mode, names, tc.want)
		}
		if sum == 0 {
			t.Errorf("%s: pass durations all zero", tc.mode)
		}
		if p.Graphs == nil || len(p.Graphs) != p.Stats.Functions {
			t.Errorf("%s: cached graphs missing: %d graphs for %d functions", tc.mode, len(p.Graphs), p.Stats.Functions)
		}
		if p.Stats.IRInsts != 0 || p.Stats.Spills != 0 {
			t.Errorf("%s: deprecated IR stats written: ir=%d spills=%d", tc.mode, p.Stats.IRInsts, p.Stats.Spills)
		}
	}
}

// TestCompileCtxCanceled: a compile under an already canceled context
// stops before its first stage and returns the cancellation cause,
// with no program.
func TestCompileCtxCanceled(t *testing.T) {
	cause := errors.New("client went away")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	p, err := parcoach.CompileCtx(ctx, "clean.mh", cleanSrc, parcoach.Options{Mode: parcoach.ModeFull})
	if !errors.Is(err, cause) {
		t.Errorf("err = %v, want the cancellation cause %v", err, cause)
	}
	if p != nil {
		t.Errorf("canceled compile returned a program: %+v", p)
	}
}
