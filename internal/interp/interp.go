// Package interp executes MiniHybrid programs — pristine or instrumented —
// on the simulated MPI world (internal/mpi) and per-process fork/join
// threading runtime (internal/omp), dispatching the instrumentation
// statements to the runtime verifier (internal/verifier).
//
// Each MPI process is a simulated thread; each parallel region forks
// further threads into a team. Every run is serialized: one thread runs
// at a time, picked by a scheduler (internal/sched) at each statement
// and blocking transition, so a run is a deterministic function of its
// schedule. Variables declared outside a threading construct are shared
// between the threads of the region (as in the OpenMP default);
// declarations inside a construct are thread-private. Arrays pass to
// functions and MPI vector operations by reference.
//
// The tree is not walked at run time: NewSession resolves every
// function once into closures over numbered frame slots (resolve.go),
// so names, callees and each statement's constant operands are bound
// before the first run, and every run of the session executes those
// closures.
package interp

import (
	"fmt"
	"io"
	"time"

	"parcoach/internal/ast"
	"parcoach/internal/mpi"
	"parcoach/internal/omp"
	"parcoach/internal/sched"
	"parcoach/internal/source"
)

// maxWidth bounds the process count and every team size. A run asking
// for more fails with a RuntimeError before it allocates anything: a
// coroutine and its state per process or thread would otherwise exhaust
// memory, which ends the process where no recover can catch it.
const maxWidth = 256

// maxLiveThreads bounds the simulated threads a run holds at once, so
// nested regions cannot multiply teams past any machine. A fork that
// would pass it fails with a RuntimeError before any worker starts. The
// ranks always fit: there are at most maxWidth of them.
const maxLiveThreads = 1024

// maxArrayElems is a run's budget of array elements, summed over every
// array declaration of every thread. A declaration past it fails with a
// RuntimeError before allocating.
const maxArrayElems = 1 << 20

// maxOutputBytes is a run's budget of print output, summed over every
// line of every thread. A print whose line would pass it fails with a
// RuntimeError before anything is written.
const maxOutputBytes = 1 << 20

// Options configures a run.
type Options struct {
	// Procs is the number of MPI processes (default 2, at most 256).
	Procs int
	// Threads is the default team size of parallel regions (default 2,
	// at most 256).
	Threads int
	// Level is the MPI thread support to simulate (zero means
	// MPI_THREAD_MULTIPLE, so the verifier, not the usage police, reports
	// hybrid bugs).
	Level mpi.ThreadLevel
	// Policy selects single-construct election (default FirstArrival;
	// RoundRobin makes concurrency bugs deterministic).
	Policy omp.Policy
	// Stdout, when non-nil, additionally receives program output.
	Stdout io.Writer
	// MaxSteps bounds the total statements executed across all threads
	// (default 50 million) so runaway loops terminate with a distinct
	// budget-exhausted outcome instead of spinning forever.
	MaxSteps int64
	// WallTimeout, when positive, arms a per-run wall-clock watchdog
	// complementing MaxSteps: past the deadline the run is aborted with
	// a WatchdogError (OutcomeTimeout) and counted (Session.Watchdogs,
	// WatchdogRuns). 0 disables it.
	WallTimeout time.Duration
	// ValueCheck arms the verifier's value oracle: every matched
	// collective round is audited for divergent roots, mismatched
	// reduction ops, torn source buffers and mis-delivered results, and a
	// violation aborts the run with OutcomeValueError. Off by default —
	// uninstrumented ground-truth runs must keep the simulator's own
	// error classes.
	ValueCheck bool
}

// Stats summarizes a run.
type Stats struct {
	Collectives int64 `json:"collectives"`
	P2PMessages int64 `json:"p2pMessages"`
	Barriers    int64 `json:"barriers"`
	Steps       int64 `json:"steps"`
	CCChecks    int   `json:"ccChecks"`
	PhaseChecks int   `json:"phaseChecks"`
	ValueChecks int   `json:"valueChecks"`
}

// Result is the outcome of a run.
type Result struct {
	// Err is nil for a clean run; otherwise the verification error,
	// runtime mismatch, deadlock report, or execution error.
	Err error
	// Output is the captured print output ("r<rank>: ..." lines), at
	// most 1 MiB: a print past that fails the run instead.
	Output string
	// ExitValues holds each rank's return value from main.
	ExitValues []int64
	Stats      Stats
	// Diverged is true when the run's scheduler is a sched.Recorder that
	// did not follow its prefix: whatever ran was NOT the recorded
	// schedule, so the run reproduces nothing.
	Diverged bool
}

// RuntimeError is a located execution error (bad index, division by zero,
// missing function, step-limit overrun, ...).
type RuntimeError struct {
	Rank int
	Pos  source.Pos
	Msg  string
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("runtime error on rank %d at %s: %s", e.Rank, e.Pos, e.Msg)
}

// StepLimitError reports that the run exhausted Options.MaxSteps. It is
// classified as OutcomeBudget, distinct from deadlocks and plain runtime
// errors, so bounded schedule exploration can tell "this interleaving
// spins" apart from "this interleaving hangs".
type StepLimitError struct {
	Rank  int
	Pos   source.Pos
	Limit int64
}

func (e *StepLimitError) Error() string {
	return fmt.Sprintf("step budget exhausted on rank %d at %s: %d statements executed (infinite loop?)",
		e.Rank, e.Pos, e.Limit)
}

// Run executes prog's main function on every rank under the default
// schedule. Other schedules and repeated runs of one program go through
// NewSession, which shares the per-run setup.
func Run(prog *ast.Program, opts Options) *Result {
	return NewSession(prog, opts).Run(nil)
}

func (r *runner) printLine(line string) {
	r.output.WriteString(line)
	if r.opts.Stdout != nil {
		io.WriteString(r.opts.Stdout, line)
	}
}

//
// Values and cells
//

type value struct {
	arr []int64 // non-nil means array
	i   int64
	// aid is the array's logical identity for trace tagging (set at
	// declaration when tracing; copies alias the array and share it).
	aid uint64
}

func scalar(i int64) value { return value{i: i} }

// cell is one shared-memory location. Team threads of a simulated
// process share cells by design — including deliberately racy benchmark
// programs — but only one thread runs at a time, so cells and array
// elements are plain memory: a simulated race is an interleaving the
// schedule picked. The array header is immutable once declared —
// whole-array assignment is rejected — so the aliasing that gives
// MiniHybrid its by-reference arrays stays intact.
type cell struct {
	v value
	// id is the cell's logical identity for trace tagging, assigned at
	// declaration from the run's allocation counter (see trace.go).
	// Cells live in frames recycled across the runs of a pooled run
	// environment, so their machine address depends on what ran before
	// — the logical id is a pure function of the schedule and keeps
	// traces (and everything derived from them) reproducible.
	id uint64
}

//
// Per-thread execution context
//

type thctx struct {
	r  *runner
	p  *mpi.Proc
	rt *omp.Runtime
	th *omp.Thread
	// gate is this thread's handle on the scheduling controller.
	gate *sched.Gate
	// trace enables event tagging (see trace.go): true iff the
	// controller records an event trace.
	trace bool
	// regionTag is the global instance number of the enclosing parallel
	// region (0 at top level); with the team's barrier phase it keys
	// barrier arrival slots.
	regionTag uint64
	// forked is the id of the team this thread's latest parallel
	// region forked, set by the team's master.
	forked int64
	// ret is the value of the return statement being unwound.
	ret int64
}

func (c *thctx) errf(pos source.Pos, format string, args ...any) error {
	return &RuntimeError{Rank: c.p.Rank(), Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// step counts one executed statement and offers a context switch,
// making every statement boundary a scheduling point; the switch
// returns the abort cause once the run has aborted.
func (c *thctx) step(pos source.Pos) error {
	c.r.steps++
	if c.r.steps > c.r.opts.MaxSteps {
		err := &StepLimitError{Rank: c.p.Rank(), Pos: pos, Limit: c.r.opts.MaxSteps}
		c.r.ctl.Abort(err)
		return err
	}
	if testStep != nil && !c.r.ctl.Aborted() {
		testStep(c.p.Rank(), c.th.TID(), pos.Line)
	}
	return c.gate.Yield(pos.Line)
}

// execCC runs a process-level CC agreement. At sites every team thread
// reaches (once == true) only the master announces — the execute-once
// semantics standing in for the paper's single-wrapped check. Sites inside
// single/master/section bodies are executed by exactly one thread already
// and must not be filtered (the elected thread need not be the master).
func (c *thctx) execCC(op string, at source.Pos, once bool) error {
	if once && c.th.Team().Size() > 1 && !c.th.Master() {
		return nil
	}
	var k uint64
	if c.trace {
		c.tagVerifier()
		k = c.tagRoundEntry(objCCHB, c.r.tr.ccSeq)
	}
	if err := c.r.ver.CC(c.p, op, at); err != nil {
		return err
	}
	if c.trace {
		c.tagRoundDone(objCCHB, k)
	}
	return nil
}
