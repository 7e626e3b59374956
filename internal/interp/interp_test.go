package interp

import (
	"errors"
	"sort"
	"strings"
	"testing"

	"parcoach/internal/ast"
	"parcoach/internal/core"
	"parcoach/internal/instrument"
	"parcoach/internal/monitor"
	"parcoach/internal/mpi"
	"parcoach/internal/omp"
	"parcoach/internal/parser"
	"parcoach/internal/sem"
	"parcoach/internal/verifier"
)

// compile parses and checks.
func compile(t *testing.T, src string) *ast.Program {
	t.Helper()
	prog, err := parser.Parse("t.mh", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := sem.Check(prog); err != nil {
		t.Fatalf("sem: %v", err)
	}
	return prog
}

// instrumented compiles, analyses and instruments.
func instrumented(t *testing.T, src string) *ast.Program {
	t.Helper()
	prog := compile(t, src)
	res := core.Analyze(prog, core.Options{})
	return instrument.Program(prog, res)
}

func runSrc(t *testing.T, src string, opts Options) *Result {
	t.Helper()
	return Run(compile(t, src), opts)
}

func sortedLines(out string) []string {
	lines := strings.Split(strings.TrimSpace(out), "\n")
	sort.Strings(lines)
	return lines
}

func TestHelloRanks(t *testing.T) {
	res := runSrc(t, `
func main() {
	MPI_Init()
	print(rank(), size())
	MPI_Finalize()
}`, Options{Procs: 3})
	if res.Err != nil {
		t.Fatalf("run failed: %v", res.Err)
	}
	got := sortedLines(res.Output)
	want := []string{"r0: 0 3", "r1: 1 3", "r2: 2 3"}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("output[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestArithmeticAndControlFlow(t *testing.T) {
	res := runSrc(t, `
func fib(n) {
	if n < 2 { return n }
	return fib(n - 1) + fib(n - 2)
}
func main() {
	var total = 0
	for i = 0 .. 10 {
		total += fib(i)
	}
	var j = 0
	while j < 3 {
		total -= 1
		j += 1
	}
	print(total, fib(10), max(3, 7), min(3, 7), abs(-4), 17 % 5, 17 / 5)
	print(1 < 2, 2 <= 2, 3 > 4, 3 >= 4, 1 == 1, 1 != 1, !true, -(-5))
	print(true && false, true || false, false || false)
}`, Options{Procs: 1})
	if res.Err != nil {
		t.Fatalf("run failed: %v", res.Err)
	}
	want := "r0: 85 55 7 3 4 2 3\nr0: 1 1 0 0 1 0 0 5\nr0: 0 1 0\n"
	if res.Output != want {
		t.Errorf("output = %q, want %q", res.Output, want)
	}
}

func TestArraysAndIntrinsics(t *testing.T) {
	res := runSrc(t, `
func fill(a, n) {
	for i = 0 .. n {
		a[i] = i * i
	}
	return 0
}
func main() {
	var a[5]
	fill(a, len(a))
	print(a[0], a[2], a[4], len(a))
	a[1] += 10
	a[1] -= 3
	print(a)
}`, Options{Procs: 1})
	if res.Err != nil {
		t.Fatalf("run failed: %v", res.Err)
	}
	want := "r0: 0 4 16 5\nr0: [0 8 4 9 16]\n"
	if res.Output != want {
		t.Errorf("output = %q, want %q", res.Output, want)
	}
}

func TestCollectivesEndToEnd(t *testing.T) {
	res := runSrc(t, `
func main() {
	MPI_Init()
	var x = rank() + 1
	var total = 0
	MPI_Allreduce(total, x, sum)
	var m = 0
	MPI_Reduce(m, x, max, 0)
	var b = 0
	if rank() == 0 { b = 42 }
	MPI_Bcast(b, 0)
	var pre = 0
	MPI_Scan(pre, x, sum)
	var g[4]
	MPI_Gather(g, x * 10, 0)
	var ag[4]
	MPI_Allgather(ag, rank())
	var sc = 0
	var parts[4]
	if rank() == 0 {
		for i = 0 .. 4 { parts[i] = 100 + i }
	}
	MPI_Scatter(sc, parts, 0)
	if rank() == 0 {
		print(total, m, b, g)
	}
	print(pre, sc, ag[3])
	MPI_Barrier()
	MPI_Finalize()
}`, Options{Procs: 4})
	if res.Err != nil {
		t.Fatalf("run failed: %v", res.Err)
	}
	out := res.Output
	if !strings.Contains(out, "r0: 10 4 42 [10 20 30 40]") {
		t.Errorf("root results wrong:\n%s", out)
	}
	for _, want := range []string{"r0: 1 100 3", "r1: 3 101 3", "r2: 6 102 3", "r3: 10 103 3"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
	// 8 collectives per rank (allreduce, reduce, bcast, scan, gather,
	// allgather, scatter, barrier) across 4 ranks.
	if res.Stats.Collectives != 4*8 {
		t.Errorf("collective count = %d, want 32", res.Stats.Collectives)
	}
}

func TestAlltoall(t *testing.T) {
	res := runSrc(t, `
func main() {
	MPI_Init()
	var src[3]
	for i = 0 .. 3 {
		src[i] = rank() * 10 + i
	}
	var dst[3]
	MPI_Alltoall(dst, src)
	print(dst)
	MPI_Finalize()
}`, Options{Procs: 3})
	if res.Err != nil {
		t.Fatalf("run failed: %v", res.Err)
	}
	for _, want := range []string{"r0: [0 10 20]", "r1: [1 11 21]", "r2: [2 12 22]"} {
		if !strings.Contains(res.Output, want) {
			t.Errorf("missing %q:\n%s", want, res.Output)
		}
	}
}

func TestSendRecvHalo(t *testing.T) {
	res := runSrc(t, `
func main() {
	MPI_Init()
	var left = rank() - 1
	var right = rank() + 1
	var v = 0
	if rank() % 2 == 0 {
		if right < size() {
			MPI_Send(rank() * 100, right, 1)
		}
		if left >= 0 {
			MPI_Recv(v, left, 1)
		}
	} else {
		if left >= 0 {
			MPI_Recv(v, left, 1)
		}
		if right < size() {
			MPI_Send(rank() * 100, right, 1)
		}
	}
	print(v)
	MPI_Finalize()
}`, Options{Procs: 4})
	if res.Err != nil {
		t.Fatalf("run failed: %v", res.Err)
	}
	for _, want := range []string{"r0: 0", "r1: 0", "r2: 100", "r3: 200"} {
		if !strings.Contains(res.Output, want) {
			t.Errorf("missing %q:\n%s", want, res.Output)
		}
	}
	if res.Stats.P2PMessages == 0 {
		t.Error("p2p stats not counted")
	}
}

func TestParallelSharedAndPrivate(t *testing.T) {
	res := runSrc(t, `
func main() {
	var shared = 0
	parallel num_threads(4) {
		var private = tid()
		atomic shared += private + 1
	}
	print(shared)
}`, Options{Procs: 1})
	if res.Err != nil {
		t.Fatalf("run failed: %v", res.Err)
	}
	if !strings.Contains(res.Output, "r0: 10") {
		t.Errorf("shared sum wrong: %s", res.Output)
	}
}

func TestPforStaticAndDynamic(t *testing.T) {
	res := runSrc(t, `
func main() {
	var a[64]
	var b[64]
	parallel num_threads(4) {
		pfor i = 0 .. 64 {
			a[i] = i * 2
		}
		pfor schedule(dynamic) i = 0 .. 64 {
			b[i] = a[i] + 1
		}
	}
	var sa = 0
	var sb = 0
	for i = 0 .. 64 {
		sa += a[i]
		sb += b[i]
	}
	print(sa, sb)
}`, Options{Procs: 1})
	if res.Err != nil {
		t.Fatalf("run failed: %v", res.Err)
	}
	if !strings.Contains(res.Output, "r0: 4032 4096") {
		t.Errorf("worksharing results wrong: %s", res.Output)
	}
}

func TestSingleMasterSections(t *testing.T) {
	res := runSrc(t, `
func main() {
	var s = 0
	var m = 0
	var sec = 0
	parallel num_threads(4) {
		single {
			s += 1
		}
		master {
			m += 1
		}
		barrier
		sections {
			section { atomic sec += 10 }
			section { atomic sec += 100 }
		}
	}
	print(s, m, sec)
}`, Options{Procs: 1})
	if res.Err != nil {
		t.Fatalf("run failed: %v", res.Err)
	}
	if !strings.Contains(res.Output, "r0: 1 1 110") {
		t.Errorf("construct semantics wrong: %s", res.Output)
	}
	if res.Stats.Barriers == 0 {
		t.Error("barrier stats missing")
	}
}

// TestAtomicTargetCallsAtomic: an atomic update whose target index
// calls a function that runs an atomic update of its own completes. The
// calls nest on one thread, and an atomic takes no lock, so nothing
// re-enters one.
func TestAtomicTargetCallsAtomic(t *testing.T) {
	res := runSrc(t, `
func bump() {
	var x = 0
	atomic x += 1
	return 0
}

func main() {
	var a[2]
	parallel num_threads(2) {
		atomic a[bump()] += 1
	}
	print(a)
}`, Options{Procs: 1})
	if res.Err != nil {
		t.Fatalf("run failed: %v", res.Err)
	}
	if !strings.Contains(res.Output, "r0: [2 0]") {
		t.Errorf("nested atomic lost updates: %s", res.Output)
	}
}

func TestCriticalProtectsUpdates(t *testing.T) {
	res := runSrc(t, `
func main() {
	var c = 0
	parallel num_threads(8) {
		for i = 0 .. 20 {
			critical {
				c += 1
			}
		}
	}
	print(c)
}`, Options{Procs: 1})
	if res.Err != nil {
		t.Fatalf("run failed: %v", res.Err)
	}
	if !strings.Contains(res.Output, "r0: 160") {
		t.Errorf("critical lost updates: %s", res.Output)
	}
}

func TestNestedParallelTeams(t *testing.T) {
	res := runSrc(t, `
func main() {
	var c = 0
	parallel num_threads(2) {
		parallel num_threads(3) {
			atomic c += 1
		}
	}
	print(c)
}`, Options{Procs: 1})
	if res.Err != nil {
		t.Fatalf("run failed: %v", res.Err)
	}
	if !strings.Contains(res.Output, "r0: 6") {
		t.Errorf("nested teams wrong: %s", res.Output)
	}
}

func TestHybridCleanProgram(t *testing.T) {
	res := runSrc(t, `
func main() {
	MPI_Init()
	var local = 0
	parallel num_threads(4) {
		pfor i = 0 .. 32 {
			atomic local += i
		}
		single {
			MPI_Allreduce(local, local, sum)
		}
	}
	print(local)
	MPI_Finalize()
}`, Options{Procs: 3})
	if res.Err != nil {
		t.Fatalf("hybrid run failed: %v", res.Err)
	}
	// sum 0..31 = 496 per rank; allreduce over 3 ranks = 1488.
	for _, want := range []string{"r0: 1488", "r1: 1488", "r2: 1488"} {
		if !strings.Contains(res.Output, want) {
			t.Errorf("missing %q:\n%s", want, res.Output)
		}
	}
}

//
// Error programs: runtime ground truth (uninstrumented)
//

func TestMismatchedCollectivesDetected(t *testing.T) {
	res := runSrc(t, `
func main() {
	MPI_Init()
	var x = 0
	if rank() == 0 {
		MPI_Bcast(x)
	} else {
		MPI_Reduce(x, x)
	}
	MPI_Finalize()
}`, Options{Procs: 2})
	var mm *mpi.MismatchError
	if !errors.As(res.Err, &mm) {
		t.Fatalf("want MismatchError, got %v", res.Err)
	}
}

func TestMissingCollectiveDeadlocks(t *testing.T) {
	res := runSrc(t, `
func main() {
	MPI_Init()
	if rank() == 0 {
		MPI_Barrier()
	}
	MPI_Finalize()
}`, Options{Procs: 2})
	// Rank 1 reaches Finalize (or exits) while rank 0 waits: deadlock.
	var d *monitor.DeadlockError
	if !errors.As(res.Err, &d) {
		t.Fatalf("want DeadlockError, got %v", res.Err)
	}
	if !strings.Contains(res.Err.Error(), "MPI_Barrier") {
		t.Errorf("report must name the pending collective: %v", res.Err)
	}
}

// TestRuntimeErrors pins the full text and location of the
// interpreter's runtime errors. Each row runs on parser output, so the
// errors only a tree that skipped sem can reach are covered too:
// unbound names, calls of unknown functions or with the wrong arity,
// and arrays and scalars used in each other's place.
func TestRuntimeErrors(t *testing.T) {
	tests := []struct {
		name, src, want string
	}{
		{"div-zero", "func main() { var x = 1 / (rank() * 0) }", "t.mh:1:25: division by zero"},
		{"mod-zero", "func main() { var x = 1 % (rank() * 0) }", "t.mh:1:25: modulo by zero"},
		{"index-oob", "func main() { var a[3]\na[5] = 1 }", `t.mh:2:1: index 5 out of range for "a" (len 3)`},
		{"neg-size", "func main() { var a[0 - 2] }", `t.mh:1:15: invalid array size -2 for "a"`},
		{"no-main", "func other() { }", "t.mh:1:6: program has no main function"},
		{"undefined-read", "func main() {\n\tvar x = 1 + y\n}",
			`t.mh:2:14: undefined variable "y"`},
		{"undefined-write", "func main() {\n\ty = 1\n}",
			`t.mh:2:2: undefined variable "y"`},
		{"undefined-indexed-write", "func main() {\n\tb[0] = 1\n}",
			`t.mh:2:2: undefined variable "b"`},
		{"undefined-vector-destination", "func main() {\n\tMPI_Init()\n\tMPI_Allgather(zz, 1)\n}",
			`t.mh:3:16: undefined variable "zz"`},
		{"undefined-function", "func main() {\n\tvar x = f(1)\n}",
			`t.mh:2:10: call to undefined function "f"`},
		{"arity", "func f(a) {\n\treturn a\n}\nfunc main() {\n\tvar x = f(1, 2)\n}",
			`t.mh:5:10: function "f" expects 1 argument(s), got 2`},
		{"intrinsic-arity", "func main() {\n\tvar x = len()\n}",
			`t.mh:2:10: len expects 1 argument`},
		{"array-as-value", "func main() {\n\tvar a[2]\n\tvar x = a + 1\n}",
			`t.mh:3:10: array used as a scalar value`},
		{"array-as-scalar", "func main() {\n\tvar a[2]\n\ta = 1\n}",
			`t.mh:3:2: array "a" used as a scalar`},
		{"scalar-indexed", "func main() {\n\tvar x = 1\n\tvar y = x[0]\n}",
			`t.mh:3:10: scalar "x" indexed like an array`},
		{"len-non-array", "func main() {\n\tvar x = len(3)\n}",
			`t.mh:2:10: len of a non-array`},
		{"vector-destination-element", "func main() {\n\tMPI_Init()\n\tvar a[2]\n\tMPI_Allgather(a[0], 1)\n}",
			`t.mh:4:16: vector destination must be an array variable`},
		{"vector-destination-scalar", "func main() {\n\tMPI_Init()\n\tvar x = 0\n\tMPI_Allgather(x, 1)\n}",
			`t.mh:4:16: vector destination "x" must be an array`},
		{"bcast-array", "func main() {\n\tMPI_Init()\n\tvar a[2]\n\tMPI_Bcast(a, 0)\n}",
			`t.mh:4:12: array used where a scalar is needed`},
		{"scatter-scalar", "func main() {\n\tMPI_Init()\n\tvar x = 0\n\tMPI_Scatter(x, 5, 0)\n}",
			`t.mh:4:17: array expected`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			prog, err := parser.Parse("t.mh", tt.src)
			if err != nil {
				t.Fatal(err)
			}
			res := Run(prog, Options{Procs: 1})
			want := "runtime error on rank 0 at " + tt.want
			if res.Err == nil || res.Err.Error() != want {
				t.Errorf("error = %v\nwant    %s", res.Err, want)
			}
		})
	}
}

func TestStepLimitStopsRunaway(t *testing.T) {
	res := runSrc(t, `
func main() {
	var x = 1
	while x > 0 {
		x += 1
	}
}`, Options{Procs: 1, MaxSteps: 10_000})
	if res.Err == nil || !strings.Contains(res.Err.Error(), "step budget exhausted") {
		t.Fatalf("want step-budget error, got %v", res.Err)
	}
	var sl *StepLimitError
	if !errors.As(res.Err, &sl) || sl.Limit != 10_000 {
		t.Fatalf("want *StepLimitError with limit 10000, got %#v", res.Err)
	}
	// The budget overrun is its own outcome class: bounded schedule
	// exploration must not confuse a spinning interleaving with a
	// deadlock or a plain runtime error.
	if got := res.Outcome(); got != OutcomeBudget {
		t.Fatalf("outcome = %v, want %v", got, OutcomeBudget)
	}
}

func TestExitValues(t *testing.T) {
	res := runSrc(t, "func main() { return rank() * 10 }", Options{Procs: 3})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	for r, v := range res.ExitValues {
		if v != int64(r*10) {
			t.Errorf("rank %d exit = %d", r, v)
		}
	}
}

//
// Instrumented runs: the paper's dynamic validation
//

func TestCCCatchesMismatchBeforeDeadlock(t *testing.T) {
	prog := instrumented(t, `
func main() {
	MPI_Init()
	var x = 0
	if rank() == 0 {
		MPI_Bcast(x)
	} else {
		MPI_Reduce(x, x)
	}
	MPI_Finalize()
}`)
	res := Run(prog, Options{Procs: 2})
	var ve *verifier.Error
	if !errors.As(res.Err, &ve) {
		t.Fatalf("want verifier.Error, got %v", res.Err)
	}
	if ve.Kind != verifier.ErrCollectiveMismatch {
		t.Errorf("kind = %v", ve.Kind)
	}
	if !strings.Contains(ve.Error(), "MPI_Bcast") || !strings.Contains(ve.Error(), "MPI_Reduce") {
		t.Errorf("message must name both collectives: %v", ve)
	}
	// The real collectives never executed: CC stopped the run first.
	if res.Stats.Collectives != 0 {
		t.Errorf("CC must fire before the collective executes, saw %d collectives", res.Stats.Collectives)
	}
}

func TestCCCatchesMissingCollective(t *testing.T) {
	prog := instrumented(t, `
func main() {
	MPI_Init()
	if rank() == 0 {
		MPI_Barrier()
	}
	MPI_Finalize()
}`)
	res := Run(prog, Options{Procs: 2})
	var ve *verifier.Error
	if !errors.As(res.Err, &ve) {
		t.Fatalf("want verifier.Error (CC), got %v", res.Err)
	}
	// Rank 0 announces the barrier while rank 1 announces MPI_Finalize.
	if !strings.Contains(ve.Error(), "MPI_Barrier") || !strings.Contains(ve.Error(), "MPI_Finalize") {
		t.Errorf("message must show the divergent announcements: %v", ve)
	}
}

func TestCCCatchesEarlyReturn(t *testing.T) {
	prog := instrumented(t, `
func main() {
	MPI_Init()
	var x = 0
	if rank() % 2 == 1 {
		return 1
	}
	MPI_Allreduce(x, x, sum)
	MPI_Finalize()
}`)
	res := Run(prog, Options{Procs: 2})
	var ve *verifier.Error
	if !errors.As(res.Err, &ve) || ve.Kind != verifier.ErrCollectiveMismatch {
		t.Fatalf("want CC mismatch on early return, got %v", res.Err)
	}
}

func TestPhaseCountCatchesMultithreadedCollective(t *testing.T) {
	prog := instrumented(t, `
func main() {
	MPI_Init()
	parallel num_threads(4) {
		MPI_Barrier()
	}
	MPI_Finalize()
}`)
	res := Run(prog, Options{Procs: 2})
	var ve *verifier.Error
	if !errors.As(res.Err, &ve) {
		t.Fatalf("want verifier.Error, got %v", res.Err)
	}
	if ve.Kind != verifier.ErrMultithreadedCollective {
		t.Errorf("kind = %v, want multithreaded-collective", ve.Kind)
	}
}

func TestConcurrentSinglesCaughtDeterministically(t *testing.T) {
	// RoundRobin election forces different winners for the two nowait
	// singles, so the concurrent execution is guaranteed to manifest.
	prog := instrumented(t, `
func main() {
	MPI_Init()
	var x = 0
	var y = 0
	parallel num_threads(2) {
		single nowait {
			MPI_Bcast(x)
		}
		single {
			MPI_Reduce(y, y)
		}
	}
	MPI_Finalize()
}`)
	res := Run(prog, Options{Procs: 2, Threads: 2, Policy: omp.RoundRobin})
	var ve *verifier.Error
	if !errors.As(res.Err, &ve) {
		t.Fatalf("want verifier.Error, got %v", res.Err)
	}
	if ve.Kind != verifier.ErrConcurrentCollectives {
		t.Errorf("kind = %v, want concurrent-collectives", ve.Kind)
	}
}

func TestFalsePositiveClearedSingleThreadRegion(t *testing.T) {
	// Statically flagged (collective directly in parallel), but the region
	// runs with one thread: the dynamic check must stay quiet.
	prog := instrumented(t, `
func main() {
	MPI_Init()
	var x = 0
	parallel num_threads(1) {
		MPI_Allreduce(x, x, sum)
	}
	MPI_Finalize()
}`)
	res := Run(prog, Options{Procs: 2})
	if res.Err != nil {
		t.Fatalf("single-thread region must pass: %v", res.Err)
	}
	if res.Stats.PhaseChecks == 0 {
		t.Error("phase checks must have run")
	}
}

func TestFalsePositiveClearedTidGuard(t *testing.T) {
	// Statically multithreaded, dynamically only thread 0 executes.
	prog := instrumented(t, `
func main() {
	MPI_Init()
	var x = 0
	parallel num_threads(4) {
		if tid() == 0 {
			MPI_Allreduce(x, x, sum)
		}
	}
	MPI_Finalize()
}`)
	res := Run(prog, Options{Procs: 2})
	if res.Err != nil {
		t.Fatalf("tid-guarded collective must pass dynamically: %v", res.Err)
	}
}

func TestMasterMasterFalsePositiveCleared(t *testing.T) {
	// Static phase 2 flags master;master, but thread 0 runs both in
	// program order: clean at run time.
	prog := instrumented(t, `
func main() {
	MPI_Init()
	var x = 0
	parallel num_threads(4) {
		master { MPI_Bcast(x) }
		master { MPI_Allreduce(x, x, sum) }
	}
	MPI_Finalize()
}`)
	res := Run(prog, Options{Procs: 2})
	if res.Err != nil {
		t.Fatalf("master/master must pass dynamically: %v", res.Err)
	}
}

func TestBarrierSeparatedSinglesPass(t *testing.T) {
	prog := instrumented(t, `
func main() {
	MPI_Init()
	var x = 0
	var y = 0
	parallel num_threads(4) {
		single { MPI_Bcast(x) }
		single { MPI_Reduce(y, y) }
	}
	MPI_Finalize()
}`)
	res := Run(prog, Options{Procs: 2, Policy: omp.RoundRobin})
	if res.Err != nil {
		t.Fatalf("barrier-separated singles must pass: %v", res.Err)
	}
}

func TestInstrumentedCleanRunMatchesUninstrumented(t *testing.T) {
	src := `
func main() {
	MPI_Init()
	var x = rank()
	for step = 0 .. 5 {
		parallel num_threads(3) {
			pfor i = 0 .. 12 {
				atomic x += 1
			}
			single {
				MPI_Allreduce(x, x, sum)
			}
		}
	}
	print(x)
	MPI_Finalize()
}`
	plain := Run(compile(t, src), Options{Procs: 2})
	inst := Run(instrumented(t, src), Options{Procs: 2})
	if plain.Err != nil || inst.Err != nil {
		t.Fatalf("runs failed: %v / %v", plain.Err, inst.Err)
	}
	// Line order across ranks is scheduling-dependent; compare sorted.
	a, b := sortedLines(plain.Output), sortedLines(inst.Output)
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Errorf("instrumentation changed program results:\n%s\nvs\n%s", plain.Output, inst.Output)
	}
}

func TestThreadLevelEnforcement(t *testing.T) {
	// Under SERIALIZED, two threads in simultaneous MPI calls is a usage
	// error. A self-rendezvous forces the overlap deterministically:
	// whichever thread enters first blocks inside MPI until the other
	// thread makes its (violating) call.
	src := `
func main() {
	MPI_Init()
	var v = 0
	parallel num_threads(2) {
		if tid() == 0 {
			MPI_Recv(v, 0, 5)
		} else {
			MPI_Send(9, 0, 5)
		}
	}
	MPI_Finalize()
}`
	res := Run(compile(t, src), Options{Procs: 1, Level: mpi.ThreadSerialized})
	var ue *mpi.UsageError
	if !errors.As(res.Err, &ue) {
		t.Fatalf("want UsageError under SERIALIZED, got %v", res.Err)
	}
	// The same program is legal under MULTIPLE.
	res2 := Run(compile(t, src), Options{Procs: 1, Level: mpi.ThreadMultiple})
	if res2.Err != nil {
		t.Fatalf("MULTIPLE must allow the overlap: %v", res2.Err)
	}
}

func TestStatsPopulated(t *testing.T) {
	res := runSrc(t, `
func main() {
	MPI_Init()
	MPI_Barrier()
	parallel num_threads(2) {
		barrier
	}
	MPI_Finalize()
}`, Options{Procs: 2})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Stats.Collectives != 2 || res.Stats.Barriers == 0 || res.Stats.Steps == 0 {
		t.Errorf("stats = %+v", res.Stats)
	}
}
