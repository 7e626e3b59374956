package parcoach_test

import (
	"fmt"
	"strings"
	"testing"

	"parcoach"
	"parcoach/internal/core"
)

const cleanSrc = `
func main() {
	MPI_Init()
	var x = rank()
	parallel num_threads(4) {
		pfor i = 0 .. 16 {
			atomic x += i
		}
		single {
			MPI_Allreduce(x, x, sum)
		}
	}
	print(x)
	MPI_Finalize()
}`

const buggySrc = `
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

func TestCompileBaselineHasNoAnalysis(t *testing.T) {
	p, err := parcoach.Compile("clean.mh", cleanSrc, parcoach.Options{Mode: parcoach.ModeBaseline})
	if err != nil {
		t.Fatal(err)
	}
	if p.Analysis != nil || len(p.Diagnostics()) != 0 {
		t.Error("baseline mode must not analyse")
	}
	if p.Timing.Analysis != 0 || p.Timing.Instrument != 0 {
		t.Error("baseline mode must not spend verification time")
	}
	if len(p.Graphs) == 0 || p.Stats.CFGNodes == 0 {
		t.Error("baseline must still produce CFGs")
	}
	if p.Stats.IRInsts != 0 || p.Stats.Spills != 0 {
		t.Errorf("deprecated IR stats written: ir=%d spills=%d", p.Stats.IRInsts, p.Stats.Spills)
	}
}

func TestCompileAnalyzeWarnsWithoutCodegen(t *testing.T) {
	p, err := parcoach.Compile("buggy.mh", buggySrc, parcoach.Options{Mode: parcoach.ModeAnalyze})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Warnings()) == 0 {
		t.Fatal("buggy source must produce warnings")
	}
	if p.Instrumented != nil {
		t.Error("analyze mode must not instrument")
	}
}

func TestCompileFullInstrumentsSelectively(t *testing.T) {
	p, err := parcoach.Compile("buggy.mh", buggySrc, parcoach.Options{Mode: parcoach.ModeFull})
	if err != nil {
		t.Fatal(err)
	}
	if p.Instrumented == nil {
		t.Fatal("full mode must instrument the flagged program")
	}
	if p.Stats.Checks.CCChecks == 0 && p.Stats.Checks.PhaseCounts == 0 {
		t.Error("instrumentation stats empty")
	}
	// A clean program needs no instrumented tree even in full mode.
	pc, err := parcoach.Compile("clean.mh", cleanSrc, parcoach.Options{Mode: parcoach.ModeFull})
	if err != nil {
		t.Fatal(err)
	}
	if pc.Instrumented != nil {
		t.Error("clean program must not be instrumented")
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := parcoach.Compile("bad.mh", "func main( {", parcoach.Options{}); err == nil {
		t.Error("parse error not reported")
	}
	if _, err := parcoach.Compile("bad.mh", "func main() { x = 1 }", parcoach.Options{}); err == nil {
		t.Error("sem error not reported")
	}
}

func TestRunCleanProgram(t *testing.T) {
	p, err := parcoach.Compile("clean.mh", cleanSrc, parcoach.Options{Mode: parcoach.ModeFull})
	if err != nil {
		t.Fatal(err)
	}
	res := p.Run(parcoach.RunOptions{Procs: 2})
	if res.Err != nil {
		t.Fatalf("clean run failed: %v", res.Err)
	}
	// sum 0..15 = 120 per rank, + rank; allreduce over 2 ranks.
	if !strings.Contains(res.Output, "r0: 241") || !strings.Contains(res.Output, "r1: 241") {
		t.Errorf("output wrong:\n%s", res.Output)
	}
}

func TestRunBuggyProgramAbortsWithVerifierError(t *testing.T) {
	p, err := parcoach.Compile("buggy.mh", buggySrc, parcoach.Options{Mode: parcoach.ModeFull})
	if err != nil {
		t.Fatal(err)
	}
	res := p.Run(parcoach.RunOptions{Procs: 2})
	if res.Err == nil {
		t.Fatal("buggy instrumented run must abort")
	}
	if !strings.Contains(res.Err.Error(), "verification error") {
		t.Errorf("want a verifier abort, got: %v", res.Err)
	}
	// The uninstrumented run fails differently (runtime detection).
	res2 := p.RunUninstrumented(parcoach.RunOptions{Procs: 2})
	if res2.Err == nil {
		t.Error("uninstrumented buggy run must also fail (ground truth)")
	}
}

// printingTeamSrc is a 2×2 program whose team threads print, so its
// output order depends on the interleaving.
const printingTeamSrc = `
func main() {
	MPI_Init()
	var x = rank()
	parallel num_threads(2) {
		for i = 0 .. 3 {
			print(tid(), i, x)
		}
	}
	MPI_Allreduce(x, x, sum)
	print(x)
	MPI_Finalize()
	return x
}
`

// TestProgramRunDeterministic: the default run is serialized under the
// default schedule, so repeated runs of one program answer the same
// output, in the same order, with the same exit values and stats.
func TestProgramRunDeterministic(t *testing.T) {
	p, err := parcoach.Compile("printing.mh", printingTeamSrc, parcoach.Options{Mode: parcoach.ModeFull})
	if err != nil {
		t.Fatal(err)
	}
	render := func() string {
		res := p.Run(parcoach.RunOptions{Procs: 2, Threads: 2})
		if res.Err != nil {
			t.Fatalf("clean run failed: %v", res.Err)
		}
		return fmt.Sprintf("%s%v %+v", res.Output, res.ExitValues, res.Stats)
	}
	first := render()
	for i := 1; i < 20; i++ {
		if got := render(); got != first {
			t.Fatalf("run %d differs from run 0:\n%s\n--- run 0 ---\n%s", i, got, first)
		}
	}
}

func TestModeString(t *testing.T) {
	if parcoach.ModeBaseline.String() != "baseline" ||
		parcoach.ModeAnalyze.String() != "warnings" ||
		parcoach.ModeFull.String() != "warnings+codegen" {
		t.Error("mode names wrong")
	}
}

func TestInitialContextOption(t *testing.T) {
	src := "func main() { MPI_Barrier() }"
	mono, err := parcoach.Compile("m.mh", src, parcoach.Options{Mode: parcoach.ModeAnalyze})
	if err != nil {
		t.Fatal(err)
	}
	if len(mono.Warnings()) != 0 {
		t.Errorf("monothreaded context must be clean: %v", mono.Warnings())
	}
	multi, err := parcoach.Compile("m.mh", src, parcoach.Options{
		Mode: parcoach.ModeAnalyze, Initial: parcoach.ContextMultithreaded})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range multi.Warnings() {
		if d.Kind == core.DiagMultithreadedCollective {
			found = true
		}
	}
	if !found {
		t.Error("multithreaded initial context must flag the bare collective")
	}
}

func TestTimingsPopulated(t *testing.T) {
	p, err := parcoach.Compile("clean.mh", cleanSrc, parcoach.Options{Mode: parcoach.ModeFull})
	if err != nil {
		t.Fatal(err)
	}
	if p.Timing.Frontend <= 0 || p.Timing.Backend <= 0 || p.Timing.Total <= 0 {
		t.Errorf("timings missing: %+v", p.Timing)
	}
	if p.Stats.Functions != 1 || p.Stats.Statements == 0 || p.Stats.CFGNodes == 0 {
		t.Errorf("stats missing: %+v", p.Stats)
	}
}
