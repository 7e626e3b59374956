package core

import (
	"strings"
	"testing"

	"parcoach/internal/ast"
	"parcoach/internal/mpi"
	"parcoach/internal/parser"
)

func analyze(t *testing.T, src string, opts Options) *Result {
	t.Helper()
	prog, err := parser.Parse("t.mh", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Analyze(prog, opts)
}

func analyzeMain(t *testing.T, body string) *Result {
	t.Helper()
	return analyze(t, "func main() {\n"+body+"\n}", Options{})
}

func kinds(r *Result) map[DiagKind]int { return CountByKind(r.Diags) }

func hasDiag(r *Result, k DiagKind, substr string) bool {
	for _, d := range r.Diags {
		if d.Kind == k && strings.Contains(d.Message, substr) {
			return true
		}
	}
	return false
}

//
// Phase 1: monothreaded context
//

func TestCleanProgramNoErrors(t *testing.T) {
	r := analyzeMain(t, `
MPI_Init()
var x = 0
parallel {
	pfor i = 0 .. 8 { atomic x += i }
	single { MPI_Allreduce(x, x, sum) }
}
MPI_Barrier()
MPI_Finalize()`)
	if errs := r.Errors(); len(errs) != 0 {
		t.Errorf("clean program produced errors: %v", errs)
	}
	main := r.Funcs["main"]
	if main.NeedsInstrumentation {
		t.Error("clean program must not need instrumentation")
	}
}

func TestCollectiveInParallelFlagged(t *testing.T) {
	r := analyzeMain(t, "parallel { MPI_Barrier() }")
	if kinds(r)[DiagMultithreadedCollective] != 1 {
		t.Fatalf("want 1 multithreaded-collective warning, got %v", r.Diags)
	}
	main := r.Funcs["main"]
	if len(main.MultithreadedColls) != 1 {
		t.Error("set S must contain the collective node")
	}
	if len(main.Sipw) != 1 {
		t.Error("Sipw must contain the parallel begin")
	}
	if !main.NeedsInstrumentation {
		t.Error("phase-1 finding must trigger instrumentation")
	}
}

func TestCollectiveInPforFlagged(t *testing.T) {
	r := analyzeMain(t, "parallel { pfor i = 0 .. 4 { MPI_Barrier() } }")
	if kinds(r)[DiagMultithreadedCollective] != 1 {
		t.Errorf("collective in worksharing loop must be flagged: %v", r.Diags)
	}
}

func TestCollectiveInCriticalFlagged(t *testing.T) {
	r := analyzeMain(t, "parallel { critical { MPI_Barrier() } }")
	if kinds(r)[DiagMultithreadedCollective] != 1 {
		t.Error("critical does not make a region monothreaded")
	}
}

func TestCollectiveInSingleClean(t *testing.T) {
	r := analyzeMain(t, "var x = 0\nparallel { single { MPI_Bcast(x) } }")
	if kinds(r)[DiagMultithreadedCollective] != 0 {
		t.Errorf("single-protected collective flagged: %v", r.Diags)
	}
}

func TestCollectiveInMasterClean(t *testing.T) {
	r := analyzeMain(t, "var x = 0\nparallel { master { MPI_Bcast(x) } }")
	if kinds(r)[DiagMultithreadedCollective] != 0 {
		t.Errorf("master-protected collective flagged: %v", r.Diags)
	}
}

func TestNestedParallelFlagged(t *testing.T) {
	r := analyzeMain(t, "parallel { parallel { single { MPI_Barrier() } } }")
	if kinds(r)[DiagMultithreadedCollective] != 1 {
		t.Error("single under nested parallel must be flagged (one thread per team)")
	}
}

func TestMultithreadedInitialContext(t *testing.T) {
	r := analyze(t, "func main() { MPI_Barrier() }", Options{Initial: ContextMultithreaded})
	if kinds(r)[DiagMultithreadedCollective] != 1 {
		t.Error("bare collective under unknown multithreaded prefix must be flagged")
	}
	r2 := analyze(t, "func main() { single { MPI_Barrier() } }", Options{Initial: ContextMultithreaded})
	if kinds(r2)[DiagMultithreadedCollective] != 0 {
		t.Error("orphaned single protects the collective")
	}
}

//
// Phase 2: concurrent monothreaded regions
//

func TestConcurrentSinglesNowait(t *testing.T) {
	r := analyzeMain(t, `
var x = 0
var y = 0
parallel {
	single nowait { MPI_Bcast(x) }
	single { MPI_Reduce(y, y) }
}`)
	if kinds(r)[DiagConcurrentCollectives] != 1 {
		t.Fatalf("want 1 concurrent-collectives warning, got %v", r.Diags)
	}
	main := r.Funcs["main"]
	if len(main.ConcPairs) != 1 {
		t.Fatal("ConcPairs must record the pair")
	}
	if len(main.Scc) != 2 {
		t.Errorf("Scc must hold both region begins, got %d", len(main.Scc))
	}
}

func TestBarrierSeparatedSinglesClean(t *testing.T) {
	r := analyzeMain(t, `
var x = 0
var y = 0
parallel {
	single { MPI_Bcast(x) }
	single { MPI_Reduce(y, y) }
}`)
	if kinds(r)[DiagConcurrentCollectives] != 0 {
		t.Errorf("implicit barrier orders the singles: %v", r.Diags)
	}
}

func TestSectionsConcurrentCollectives(t *testing.T) {
	r := analyzeMain(t, `
var x = 0
var y = 0
parallel {
	sections {
		section { MPI_Bcast(x) }
		section { MPI_Reduce(y, y) }
	}
}`)
	if kinds(r)[DiagConcurrentCollectives] != 1 {
		t.Errorf("collectives in two sections must be flagged: %v", r.Diags)
	}
}

func TestMasterMasterStaticallyFlagged(t *testing.T) {
	// Statically concurrent (different S ids); the dynamic check clears it
	// because thread 0 runs both in order. The paper accepts this static
	// false positive.
	r := analyzeMain(t, `
var x = 0
parallel {
	master { MPI_Bcast(x) }
	master { MPI_Reduce(x, x) }
}`)
	if kinds(r)[DiagConcurrentCollectives] != 1 {
		t.Errorf("master/master is a static concurrent candidate: %v", r.Diags)
	}
}

//
// Phase 3: inter-process sequence (Algorithm 1)
//

func TestRankDependentBranchFlagged(t *testing.T) {
	r := analyzeMain(t, "if rank() == 0 { MPI_Barrier() }")
	if kinds(r)[DiagCollectiveMismatch] != 1 {
		t.Fatalf("want 1 collective-mismatch warning, got %v", r.Diags)
	}
	main := r.Funcs["main"]
	if !main.NeedsCC {
		t.Error("phase-3 finding must require CC instrumentation")
	}
	if len(main.SeqWarn["MPI_Barrier"]) != 1 {
		t.Error("SeqWarn must record the divergence branch")
	}
}

func TestProcessInvariantBranchClean(t *testing.T) {
	r := analyzeMain(t, "var n = 10\nif n > 5 { MPI_Barrier() }")
	if kinds(r)[DiagCollectiveMismatch] != 0 {
		t.Errorf("literal-bound branch is process-invariant: %v", r.Diags)
	}
	if r.Funcs["main"].NeedsCC {
		t.Error("no CC needed for invariant control flow")
	}
}

func TestRawPDFKeepsInvariantBranches(t *testing.T) {
	src := "func main() {\nvar n = 10\nif n > 5 { MPI_Barrier() }\n}"
	r := analyze(t, src, Options{RawPDF: true})
	if kinds(r)[DiagCollectiveMismatch] != 1 {
		t.Errorf("raw mode must keep the unrefined PDF+ output: %v", r.Diags)
	}
}

func TestTimeStepLoopClean(t *testing.T) {
	r := analyzeMain(t, `
var x = 0
for step = 0 .. 100 {
	MPI_Allreduce(x, x, sum)
}`)
	if kinds(r)[DiagCollectiveMismatch] != 0 {
		t.Errorf("literal time-step loop must not warn: %v", r.Diags)
	}
}

func TestRankDependentLoopFlagged(t *testing.T) {
	r := analyzeMain(t, `
var x = 0
var n = rank() + 2
for step = 0 .. n {
	MPI_Allreduce(x, x, sum)
}`)
	if kinds(r)[DiagCollectiveMismatch] != 1 {
		t.Errorf("rank-dependent trip count must warn: %v", r.Diags)
	}
}

func TestRecvDependentBranchFlagged(t *testing.T) {
	r := analyzeMain(t, `
var v = 0
MPI_Recv(v, 0)
if v > 0 { MPI_Barrier() }`)
	if kinds(r)[DiagCollectiveMismatch] != 1 {
		t.Errorf("received values are process-variant: %v", r.Diags)
	}
}

func TestAllreduceResultInvariant(t *testing.T) {
	r := analyzeMain(t, `
var v = 0
MPI_Allreduce(v, v, max)
if v > 0 { MPI_Barrier() }`)
	if kinds(r)[DiagCollectiveMismatch] != 0 {
		t.Errorf("allreduce produces identical values on every process: %v", r.Diags)
	}
}

func TestBothArmsSameCollectiveStillFlagged(t *testing.T) {
	// Algorithm 1 treats each collective kind separately: Barrier on one
	// side, Bcast on the other — both PDF+ sets contain the branch.
	r := analyzeMain(t, `
var x = 0
if rank() == 0 { MPI_Barrier() } else { MPI_Bcast(x) }`)
	if got := kinds(r)[DiagCollectiveMismatch]; got != 2 {
		t.Errorf("want 2 mismatch warnings (one per collective), got %d: %v", got, r.Diags)
	}
}

func TestEarlyReturnBeforeCollective(t *testing.T) {
	r := analyzeMain(t, `
if rank() % 2 == 0 {
	return
}
MPI_Barrier()`)
	if kinds(r)[DiagCollectiveMismatch] == 0 {
		t.Errorf("early return desynchronizes the collective: %v", r.Diags)
	}
}

//
// Interprocedural analysis
//

func TestSummaryKinds(t *testing.T) {
	r := analyze(t, `
func leaf() { MPI_Barrier() }
func mid() { leaf() }
func main() { mid() }`, Options{})
	for _, fn := range []string{"leaf", "mid", "main"} {
		sum := r.Summaries[fn]
		if !sum.HasCollective() {
			t.Errorf("%s summary must include the transitive barrier", fn)
		}
		if len(sum.Kinds) != 1 || sum.Kinds[0] != ast.MPIBarrier {
			t.Errorf("%s kinds = %v", fn, sum.Kinds)
		}
	}
}

func TestCallInParallelFlagged(t *testing.T) {
	r := analyze(t, `
func compute() { MPI_Barrier() }
func main() { parallel { compute() } }`, Options{})
	if kinds(r)[DiagMultithreadedCollective] == 0 {
		t.Errorf("call to collective-bearing function in parallel must warn: %v", r.Diags)
	}
}

func TestInternallyProtectedCalleeClean(t *testing.T) {
	// The callee wraps its collective in single: safe to call from a
	// parallel region (exposure analysis).
	r := analyze(t, `
func safe() { single { MPI_Barrier() } }
func main() { parallel { safe() } }`, Options{})
	if got := kinds(r)[DiagMultithreadedCollective]; got != 0 {
		t.Errorf("internally protected callee must not warn, got %d: %v", got, r.Diags)
	}
}

func TestContextPropagatesToCallee(t *testing.T) {
	// f is only ever called from inside a parallel region, so its bare
	// collective is multithreaded even though f itself has no parallel.
	r := analyze(t, `
func f() { MPI_Barrier() }
func main() { parallel { f() } }`, Options{})
	if !r.Funcs["f"].Multithreaded {
		t.Error("callee must inherit the multithreaded context")
	}
}

func TestMonoCalleeNotMultithreaded(t *testing.T) {
	r := analyze(t, `
func f() { MPI_Barrier() }
func main() { f() }`, Options{})
	if r.Funcs["f"].Multithreaded {
		t.Error("callee called from sequential context must stay monothreaded")
	}
	if len(r.Errors()) != 0 {
		t.Errorf("clean: %v", r.Errors())
	}
}

func TestRecursiveSummaryTerminates(t *testing.T) {
	r := analyze(t, `
func rec(n) {
	if n > 0 {
		MPI_Barrier()
		rec(n - 1)
	}
	return 0
}
func main() { rec(4) }`, Options{})
	if !r.Summaries["rec"].HasCollective() {
		t.Error("recursive summary must converge and include the barrier")
	}
}

func TestCallUnderRankBranchFlagged(t *testing.T) {
	r := analyze(t, `
func doColl() { MPI_Allreduce(x, x, sum) }
func main() {
	if rank() == 0 { doColl() }
}`, Options{})
	if kinds(r)[DiagCollectiveMismatch] == 0 {
		t.Errorf("summarized call under rank branch must warn: %v", r.Diags)
	}
}

//
// Thread level inference
//

func TestRequiredThreadLevels(t *testing.T) {
	tests := []struct {
		src  string
		want mpi.ThreadLevel
	}{
		{"func main() { MPI_Barrier() }", mpi.ThreadSingle},
		{"func main() { parallel { var x = 1 }\nMPI_Barrier() }", mpi.ThreadFunneled},
		{"func main() { var x = 0\nparallel { master { MPI_Bcast(x) } } }", mpi.ThreadFunneled},
		{"func main() { var x = 0\nparallel { single { MPI_Bcast(x) } } }", mpi.ThreadSerialized},
		{"func main() { parallel { MPI_Barrier() } }", mpi.ThreadMultiple},
	}
	for _, tt := range tests {
		r := analyze(t, tt.src, Options{})
		if r.RequiredLevel != tt.want {
			t.Errorf("RequiredLevel(%q) = %v, want %v", tt.src, r.RequiredLevel, tt.want)
		}
	}
}

func TestThreadLevelDiagEmitted(t *testing.T) {
	r := analyzeMain(t, "MPI_Barrier()")
	found := false
	for _, d := range r.Diags {
		if d.Kind == DiagThreadLevel {
			found = true
			if d.Kind.IsError() {
				t.Error("thread-level diag must be informational")
			}
		}
	}
	if !found {
		t.Error("thread-level diagnostic missing")
	}
}

//
// Ambiguity and diagnostics plumbing
//

func TestAmbiguousWordReported(t *testing.T) {
	r := analyzeMain(t, `
parallel {
	if tid() == 0 {
		barrier
	}
	single { MPI_Bcast(x) }
}`)
	if kinds(r)[DiagAmbiguousWord] == 0 {
		t.Errorf("path-dependent word must be reported: %v", r.Diags)
	}
}

func TestDiagnosticsSortedAndLocated(t *testing.T) {
	r := analyzeMain(t, `
if rank() == 0 { MPI_Barrier() }
parallel { MPI_Bcast(x) }`)
	var last Diagnostic
	for i, d := range r.Diags {
		if !d.Pos.IsValid() {
			t.Errorf("diag %d has no position: %v", i, d)
		}
		if i > 0 && d.Pos.File == last.Pos.File && d.Pos.Before(last.Pos) && last.Pos.Before(d.Pos) {
			t.Error("diags must be sorted")
		}
		last = d
	}
	// String rendering includes kind and position.
	s := r.Diags[0].String()
	if !strings.Contains(s, "t.mh:") {
		t.Errorf("diag String = %q", s)
	}
}

func TestConcurrentDiagCarriesRelatedPos(t *testing.T) {
	r := analyzeMain(t, `
var x = 0
var y = 0
parallel {
	single nowait { MPI_Bcast(x) }
	single { MPI_Reduce(y, y) }
}`)
	for _, d := range r.Diags {
		if d.Kind == DiagConcurrentCollectives && len(d.Related) == 0 {
			t.Error("concurrent warning must reference the partner collective")
		}
	}
}

func TestNeedsInstrumentationAggregation(t *testing.T) {
	r := analyze(t, `
func clean() { MPI_Barrier() }
func dirty() { if rank() == 0 { MPI_Barrier() } }
func main() {
	clean()
	dirty()
}`, Options{})
	if r.Funcs["clean"].NeedsInstrumentation {
		t.Error("clean function flagged")
	}
	if !r.Funcs["dirty"].NeedsInstrumentation {
		t.Error("dirty function not flagged")
	}
	if !r.NeedsInstrumentation() {
		t.Error("program-level aggregation wrong")
	}
}

func TestDiagKindStringAndIsError(t *testing.T) {
	for _, k := range []DiagKind{DiagMultithreadedCollective, DiagConcurrentCollectives, DiagCollectiveMismatch, DiagAmbiguousWord} {
		if k.String() == "" || !k.IsError() {
			t.Errorf("kind %d misbehaves", k)
		}
	}
	if DiagThreadLevel.IsError() {
		t.Error("thread-level is informational")
	}
	if mpi.ThreadMultiple.String() != "MPI_THREAD_MULTIPLE" {
		t.Error("thread level name wrong")
	}
}
