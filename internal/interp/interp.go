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
package interp

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"time"

	"parcoach/internal/ast"
	"parcoach/internal/monitor"
	"parcoach/internal/mpi"
	"parcoach/internal/omp"
	"parcoach/internal/sched"
	"parcoach/internal/source"
	"parcoach/internal/token"
	"parcoach/internal/verifier"
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

// runner is one run's state. Only the running simulated thread touches
// it, so it takes no lock.
type runner struct {
	prog  *ast.Program
	opts  Options
	world *mpi.World
	ver   *verifier.Verifier
	// ctl serializes the run.
	ctl *sched.Controller
	// tr holds the event-tracing round counters when the scheduler
	// records an event trace for DPOR (see trace.go); nil otherwise.
	tr *traceRT

	output bytes.Buffer

	steps       int64
	collectives int64
	p2p         int64
	barriers    int64
	// arrayElems counts the array elements declared so far, against
	// maxArrayElems.
	arrayElems int64
}

func (r *runner) printLine(line string) {
	r.output.WriteString(line)
	if r.opts.Stdout != nil {
		io.WriteString(r.opts.Stdout, line)
	}
}

//
// Values and environments
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
	// Cells are recycled through process-wide arenas, so their machine
	// address depends on what other sessions ran before — the logical
	// id is a pure function of the schedule and keeps traces (and
	// everything derived from them) reproducible.
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
	fn string // current function name (for return:<fn> CC ids)
	// gate is this thread's handle on the scheduling controller.
	gate *sched.Gate
	// ar is this thread's private frame arena (see arena.go). Team
	// workers get their own from the pool; the master shares its
	// forker's (it runs the region body on the same goroutine).
	ar *arena
	// trace enables event tagging (see trace.go): true iff the
	// controller records an event trace.
	trace bool
	// regionTag is the global instance number of the enclosing parallel
	// region (0 at top level) and barSeq counts this thread's barrier
	// phases within it; together they key barrier arrival slots.
	regionTag uint64
	barSeq    uint64
}

func (c *thctx) errf(pos source.Pos, format string, args ...any) error {
	return &RuntimeError{Rank: c.p.Rank(), Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// step counts one executed statement, polls the abort flag, and offers
// a context switch, making every statement boundary a scheduling point.
func (c *thctx) step(pos source.Pos) error {
	c.r.steps++
	if c.r.steps > c.r.opts.MaxSteps {
		err := &StepLimitError{Rank: c.p.Rank(), Pos: pos, Limit: c.r.opts.MaxSteps}
		c.r.world.Monitor().Abort(err)
		return err
	}
	if c.r.world.Monitor().Aborted() {
		return c.r.world.Monitor().Err()
	}
	if testStep != nil {
		testStep(c.p.Rank(), c.th.TID(), pos.Line)
	}
	c.gate.Yield(pos.Line)
	if c.r.world.Monitor().Aborted() {
		return c.r.world.Monitor().Err()
	}
	return nil
}

func (c *thctx) callFunction(fn *ast.FuncDecl, args []value, at source.Pos) (int64, error) {
	if len(args) != len(fn.Params) {
		return 0, c.errf(at, "function %q expects %d argument(s), got %d", fn.Name, len(fn.Params), len(args))
	}
	e := c.newEnv(nil)
	for i, p := range fn.Params {
		c.declare(e, p, args[i])
	}
	saved := c.fn
	c.fn = fn.Name
	defer func() { c.fn = saved }()
	returned, ret, err := c.execBlock(fn.Body, e)
	if err != nil {
		return 0, err
	}
	c.releaseEnv(e)
	if !returned {
		ret = 0
	}
	return ret, nil
}

// execBlock runs a block in a fresh child scope. The scope frame is
// recycled on clean exit only; error exits leak it to the GC because
// team workers that unwind an abort later still read scopes shared
// through the parallel-body closure (see arena.go).
func (c *thctx) execBlock(b *ast.Block, e *env) (returned bool, ret int64, err error) {
	inner := c.newEnv(e)
	returned, ret, err = c.execStmts(b.Stmts, inner)
	if err == nil {
		c.releaseEnv(inner)
	}
	return returned, ret, err
}

func (c *thctx) execStmts(stmts []ast.Stmt, e *env) (bool, int64, error) {
	for _, s := range stmts {
		returned, ret, err := c.execStmt(s, e)
		if err != nil || returned {
			return returned, ret, err
		}
	}
	return false, 0, nil
}

func (c *thctx) execStmt(s ast.Stmt, e *env) (bool, int64, error) {
	if err := c.step(s.Pos()); err != nil {
		return false, 0, err
	}
	switch s := s.(type) {
	case *ast.Block:
		return c.execBlock(s, e)

	case *ast.VarDecl:
		if s.ArraySize != nil {
			n, err := c.evalInt(s.ArraySize, e)
			if err != nil {
				return false, 0, err
			}
			if n < 0 {
				return false, 0, c.errf(s.VarPos, "invalid array size %d for %q", n, s.Name)
			}
			if n > maxArrayElems-c.r.arrayElems {
				return false, 0, c.errf(s.VarPos, "array %q of %d elements exceeds the run's budget of %d array elements (%d declared)",
					s.Name, n, maxArrayElems, c.r.arrayElems)
			}
			c.r.arrayElems += n
			av := value{arr: make([]int64, n)}
			if c.trace {
				av.aid = c.r.tr.nextAlloc()
			}
			c.declare(e, s.Name, av)
			return false, 0, nil
		}
		v := int64(0)
		if s.Init != nil {
			var err error
			v, err = c.evalInt(s.Init, e)
			if err != nil {
				return false, 0, err
			}
		}
		c.declare(e, s.Name, scalar(v))
		return false, 0, nil

	case *ast.Assign:
		v, err := c.evalInt(s.Value, e)
		if err != nil {
			return false, 0, err
		}
		return false, 0, c.assign(s.Target, s.Op, v, e)

	case *ast.CallStmt:
		_, err := c.evalExpr(s.Call, e)
		return false, 0, err

	case *ast.If:
		cond, err := c.evalInt(s.Cond, e)
		if err != nil {
			return false, 0, err
		}
		if cond != 0 {
			return c.execBlock(s.Then, e)
		}
		if s.Else != nil {
			return c.execStmt(s.Else, e)
		}
		return false, 0, nil

	case *ast.For:
		from, err := c.evalInt(s.From, e)
		if err != nil {
			return false, 0, err
		}
		to, err := c.evalInt(s.To, e)
		if err != nil {
			return false, 0, err
		}
		loopEnv := c.newEnv(e)
		c.declare(loopEnv, s.Var, scalar(from))
		cellVar := loopEnv.lookup(s.Var)
		for i := from; i < to; i++ {
			cellVar.v = scalar(i)
			returned, ret, err := c.execBlock(s.Body, loopEnv)
			if err != nil || returned {
				if err == nil {
					c.releaseEnv(loopEnv)
				}
				return returned, ret, err
			}
			if err := c.step(s.ForPos); err != nil {
				return false, 0, err
			}
		}
		c.releaseEnv(loopEnv)
		return false, 0, nil

	case *ast.While:
		for {
			cond, err := c.evalInt(s.Cond, e)
			if err != nil {
				return false, 0, err
			}
			if cond == 0 {
				return false, 0, nil
			}
			returned, ret, err := c.execBlock(s.Body, e)
			if err != nil || returned {
				return returned, ret, err
			}
			if err := c.step(s.WhilePos); err != nil {
				return false, 0, err
			}
		}

	case *ast.Return:
		if s.Value != nil {
			v, err := c.evalInt(s.Value, e)
			return true, v, err
		}
		return true, 0, nil

	case *ast.Print:
		parts := make([]string, len(s.Args))
		for i, a := range s.Args {
			v, err := c.evalExpr(a, e)
			if err != nil {
				return false, 0, err
			}
			if v.arr != nil {
				parts[i] = fmt.Sprint(v.arr)
			} else {
				parts[i] = fmt.Sprint(v.i)
			}
		}
		line := fmt.Sprintf("r%d: %s\n", c.p.Rank(), strings.Join(parts, " "))
		if printed := c.r.output.Len(); len(line) > maxOutputBytes-printed {
			return false, 0, c.errf(s.Pos(), "print of %d bytes exceeds the run's budget of %d output bytes (%d printed)",
				len(line), maxOutputBytes, printed)
		}
		c.r.printLine(line)
		return false, 0, nil

	case *ast.MPIStmt:
		return false, 0, c.execMPI(s, e)

	case *ast.ParallelStmt:
		n := 0
		if s.NumThreads != nil {
			nv, err := c.evalInt(s.NumThreads, e)
			if err != nil {
				return false, 0, err
			}
			if nv > maxWidth {
				return false, 0, c.errf(s.Pos(), "team of %d threads exceeds the limit of %d", nv, maxWidth)
			}
			n = int(nv)
		}
		// The fork is itself a deterministic schedule event: Parallel
		// starts the workers here, while this thread holds the token,
		// so they take the next thread ids in member order.
		teamSize := n
		if teamSize <= 0 {
			teamSize = c.rt.DefaultThreads()
		}
		if live := c.r.ctl.Live(); live+teamSize-1 > maxLiveThreads {
			return false, 0, c.errf(s.Pos(), "team of %d threads would take the run past the limit of %d live threads (%d live)",
				teamSize, maxLiveThreads, live)
		}
		var regionTag uint64
		if c.trace {
			regionTag = c.r.tr.nextRegion()
			// The fork edge: the parent's pre-region history
			// happens-before every team member's first step.
			c.tagRel(forkObj(c.p.Rank(), regionTag))
		}
		// The function name is snapshotted rather than read from c inside
		// the body: after an abort, team workers unwind after the
		// Parallel call and the enclosing callFunction returned, whose
		// deferred restore of c.fn would change what they read.
		fnName := c.fn
		err := c.rt.Parallel(c.th, n, func(th *omp.Thread) error {
			// The master runs the body on the forking thread, so it keeps
			// the forker's arena and gate; workers draw their own arena
			// and look up the gate Parallel registered for them. Each
			// member's context comes from (and returns to) the arena that
			// member uses, so no two members touch one free list.
			ar, gate := c.ar, c.gate
			if th.TID() != 0 {
				ar, gate = getArena(), c.r.ctl.Running()
			}
			child := ar.newThctx()
			child.r, child.p, child.rt, child.th = c.r, c.p, c.rt, th
			child.fn, child.ar, child.gate = fnName, ar, gate
			child.trace, child.regionTag = c.trace, regionTag
			if child.trace && th.TID() != 0 {
				child.tagAcq(forkObj(c.p.Rank(), regionTag))
			}
			_, _, err := child.execBlock(s.Body, e)
			if child.trace && err == nil {
				// The join edge: each member's region history
				// happens-before the parent's post-region steps.
				child.tagRel(joinObj(c.p.Rank(), th.TID(), regionTag))
			}
			if err == nil {
				ar.putThctx(child)
				if th.TID() != 0 {
					putArena(ar)
				}
			}
			return err
		})
		if c.trace && err == nil {
			for tid := 0; tid < teamSize; tid++ {
				c.tagAcq(joinObj(c.p.Rank(), tid, regionTag))
			}
		}
		return false, 0, err

	case *ast.SingleStmt:
		if c.trace {
			// The first-arrival election is decided by arrival order, so
			// arrivals of one single region conflict.
			c.tagSingle(s.RegionID)
		}
		if c.th.Single(s.RegionID) {
			if _, _, err := c.execBlock(s.Body, e); err != nil {
				return false, 0, err
			}
		}
		if !s.Nowait {
			c.r.barriers++
			return false, 0, c.barrier()
		}
		return false, 0, nil

	case *ast.MasterStmt:
		if c.th.Master() {
			if _, _, err := c.execBlock(s.Body, e); err != nil {
				return false, 0, err
			}
		}
		return false, 0, nil

	case *ast.CriticalStmt:
		if c.trace {
			// Acquisition order is schedule-dependent: the queue write
			// conflicts across threads. The handoff acquire must wait
			// until entry *returns* — tagged at entry it would land in
			// the blocked event, before the previous holder's release.
			c.tagWrite(c.critQObj(s.Name))
		}
		if err := c.rt.CriticalEnter(c.th, s.Name); err != nil {
			return false, 0, err
		}
		if c.trace {
			c.tagAcq(c.critHObj(s.Name))
		}
		_, _, err := c.execBlock(s.Body, e)
		if c.trace {
			c.tagRel(c.critHObj(s.Name))
		}
		c.rt.CriticalExit(c.th, s.Name)
		return false, 0, err

	case *ast.BarrierStmt:
		c.r.barriers++
		return false, 0, c.barrier()

	case *ast.AtomicStmt:
		v, err := c.evalInt(s.Value, e)
		if err != nil {
			return false, 0, err
		}
		// The monitor lock serializes atomic updates process-wide; they
		// never block so this cannot deadlock.
		c.r.world.Monitor().Lock()
		err = c.assign(s.Target, s.Op, v, e)
		c.r.world.Monitor().Unlock()
		return false, 0, err

	case *ast.PforStmt:
		from, err := c.evalInt(s.From, e)
		if err != nil {
			return false, 0, err
		}
		to, err := c.evalInt(s.To, e)
		if err != nil {
			return false, 0, err
		}
		var loop *omp.ForLoop
		dynamic := s.Sched == ast.ScheduleDynamic
		if dynamic {
			loop = c.th.DynamicFor(s.RegionID, from, to)
		} else {
			loop = c.th.StaticFor(s.RegionID, from, to)
		}
		loopEnv := c.newEnv(e)
		c.declare(loopEnv, s.Var, scalar(0))
		cellVar := loopEnv.lookup(s.Var)
		for {
			if c.trace && dynamic {
				// Dynamic chunk claiming is arrival-order dependent;
				// static partitioning is a pure function of (tid, bounds).
				c.tagDynNext(s.RegionID)
			}
			i, ok := loop.Next()
			if !ok {
				break
			}
			cellVar.v = scalar(i)
			if _, _, err := c.execBlock(s.Body, loopEnv); err != nil {
				return false, 0, err
			}
			if err := c.step(s.PforPos); err != nil {
				return false, 0, err
			}
		}
		c.releaseEnv(loopEnv)
		if !s.Nowait {
			c.r.barriers++
			return false, 0, c.barrier()
		}
		return false, 0, nil

	case *ast.SectionsStmt:
		for _, idx := range c.th.Sections(s.RegionID, len(s.Bodies)) {
			if _, _, err := c.execBlock(s.Bodies[idx], e); err != nil {
				return false, 0, err
			}
		}
		if !s.Nowait {
			c.r.barriers++
			return false, 0, c.barrier()
		}
		return false, 0, nil

	case *ast.InstrCC:
		return false, 0, c.execCC(s.OpName(), s.At, s.Once)

	case *ast.InstrCCReturn:
		return false, 0, c.execCC("return:"+c.fn, s.At, s.Once)

	case *ast.InstrPhaseCount:
		if c.trace {
			c.tagVerifier()
		}
		return false, 0, c.r.ver.PhaseCount(c.p, c.th, s.NodeID, s.CollKind.String(), s.At)

	case *ast.InstrMonoCheck:
		c.r.ver.MonoCheck(c.th, s.RegionID)
		return false, 0, nil

	case *ast.InstrConcNote:
		if s.Enter {
			c.r.ver.ConcEnter(c.p, c.th, s.RegionID)
		} else {
			c.r.ver.ConcExit(c.p, c.th, s.RegionID)
		}
		return false, 0, nil
	}
	return false, 0, c.errf(s.Pos(), "unhandled statement %T", s)
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
	var ccK uint64
	if c.trace {
		ccK = c.tagCCEntry()
	}
	err := c.r.ver.CC(c.p, op, at)
	if err != nil {
		return err
	}
	if c.trace {
		c.tagCCDone(ccK)
	}
	return nil
}

func (c *thctx) assign(lv ast.LValue, op ast.AssignOp, v int64, e *env) error {
	apply := func(old int64) int64 {
		switch op {
		case ast.AssignAdd:
			return old + v
		case ast.AssignSub:
			return old - v
		}
		return v
	}
	switch lv := lv.(type) {
	case *ast.VarRef:
		cl := e.lookup(lv.Name)
		if cl == nil {
			return c.errf(lv.NamePos, "undefined variable %q", lv.Name)
		}
		if c.trace {
			c.tagWrite(cellObj(cl))
		}
		if cl.v.arr != nil {
			return c.errf(lv.NamePos, "array %q used as a scalar", lv.Name)
		}
		cl.v = scalar(apply(cl.v.i))
		return nil
	case *ast.IndexExpr:
		cl := e.lookup(lv.Name)
		if cl == nil {
			return c.errf(lv.NamePos, "undefined variable %q", lv.Name)
		}
		idx, err := c.evalInt(lv.Index, e)
		if err != nil {
			return err
		}
		v := cl.v
		if v.arr == nil {
			return c.errf(lv.NamePos, "scalar %q indexed like an array", lv.Name)
		}
		if idx < 0 || idx >= int64(len(v.arr)) {
			return c.errf(lv.NamePos, "index %d out of range for %q (len %d)", idx, lv.Name, len(v.arr))
		}
		if c.trace {
			c.tagWrite(elemObj(v, idx))
		}
		v.arr[idx] = apply(v.arr[idx])
		return nil
	}
	return c.errf(lv.Pos(), "bad assignment target")
}

//
// Expressions
//

func (c *thctx) evalInt(ex ast.Expr, e *env) (int64, error) {
	v, err := c.evalExpr(ex, e)
	if err != nil {
		return 0, err
	}
	if v.arr != nil {
		return 0, c.errf(ex.Pos(), "array used as a scalar value")
	}
	return v.i, nil
}

func (c *thctx) evalExpr(ex ast.Expr, e *env) (value, error) {
	switch ex := ex.(type) {
	case *ast.IntLit:
		return scalar(ex.Value), nil
	case *ast.BoolLit:
		if ex.Value {
			return scalar(1), nil
		}
		return scalar(0), nil
	case *ast.VarRef:
		cl := e.lookup(ex.Name)
		if cl == nil {
			return value{}, c.errf(ex.NamePos, "undefined variable %q", ex.Name)
		}
		if c.trace {
			c.tagRead(cellObj(cl))
		}
		return cl.v, nil
	case *ast.IndexExpr:
		cl := e.lookup(ex.Name)
		if cl == nil {
			return value{}, c.errf(ex.NamePos, "undefined variable %q", ex.Name)
		}
		idx, err := c.evalInt(ex.Index, e)
		if err != nil {
			return value{}, err
		}
		v := cl.v
		if v.arr == nil {
			return value{}, c.errf(ex.NamePos, "scalar %q indexed like an array", ex.Name)
		}
		if idx < 0 || idx >= int64(len(v.arr)) {
			return value{}, c.errf(ex.NamePos, "index %d out of range for %q (len %d)", idx, ex.Name, len(v.arr))
		}
		if c.trace {
			c.tagRead(elemObj(v, idx))
		}
		return scalar(v.arr[idx]), nil
	case *ast.UnaryExpr:
		v, err := c.evalInt(ex.X, e)
		if err != nil {
			return value{}, err
		}
		if ex.Op == token.Not {
			if v == 0 {
				return scalar(1), nil
			}
			return scalar(0), nil
		}
		return scalar(-v), nil
	case *ast.BinaryExpr:
		return c.evalBinary(ex, e)
	case *ast.CallExpr:
		return c.evalCall(ex, e)
	}
	return value{}, c.errf(ex.Pos(), "unhandled expression %T", ex)
}

func boolVal(b bool) value {
	if b {
		return scalar(1)
	}
	return scalar(0)
}

func (c *thctx) evalBinary(ex *ast.BinaryExpr, e *env) (value, error) {
	// Short-circuit logical operators.
	if ex.Op == token.AndAnd || ex.Op == token.OrOr {
		x, err := c.evalInt(ex.X, e)
		if err != nil {
			return value{}, err
		}
		if ex.Op == token.AndAnd && x == 0 {
			return scalar(0), nil
		}
		if ex.Op == token.OrOr && x != 0 {
			return scalar(1), nil
		}
		y, err := c.evalInt(ex.Y, e)
		if err != nil {
			return value{}, err
		}
		return boolVal(y != 0), nil
	}
	x, err := c.evalInt(ex.X, e)
	if err != nil {
		return value{}, err
	}
	y, err := c.evalInt(ex.Y, e)
	if err != nil {
		return value{}, err
	}
	switch ex.Op {
	case token.Plus:
		return scalar(x + y), nil
	case token.Minus:
		return scalar(x - y), nil
	case token.Star:
		return scalar(x * y), nil
	case token.Slash:
		if y == 0 {
			return value{}, c.errf(ex.OpPos, "division by zero")
		}
		return scalar(x / y), nil
	case token.Percent:
		if y == 0 {
			return value{}, c.errf(ex.OpPos, "modulo by zero")
		}
		return scalar(x % y), nil
	case token.Eq:
		return boolVal(x == y), nil
	case token.NotEq:
		return boolVal(x != y), nil
	case token.Lt:
		return boolVal(x < y), nil
	case token.LtEq:
		return boolVal(x <= y), nil
	case token.Gt:
		return boolVal(x > y), nil
	case token.GtEq:
		return boolVal(x >= y), nil
	}
	return value{}, c.errf(ex.OpPos, "unhandled operator %s", ex.Op)
}

func (c *thctx) evalCall(ex *ast.CallExpr, e *env) (value, error) {
	switch ex.Name {
	case "rank":
		return scalar(int64(c.p.Rank())), nil
	case "size":
		return scalar(int64(c.p.Size())), nil
	case "tid":
		return scalar(int64(c.th.TID())), nil
	case "nthreads":
		return scalar(int64(c.th.Team().Size())), nil
	case "len":
		if len(ex.Args) != 1 {
			return value{}, c.errf(ex.NamePos, "len expects 1 argument")
		}
		v, err := c.evalExpr(ex.Args[0], e)
		if err != nil {
			return value{}, err
		}
		if v.arr == nil {
			return value{}, c.errf(ex.NamePos, "len of a non-array")
		}
		return scalar(int64(len(v.arr))), nil
	case "abs":
		if len(ex.Args) != 1 {
			return value{}, c.errf(ex.NamePos, "abs expects 1 argument")
		}
		v, err := c.evalInt(ex.Args[0], e)
		if err != nil {
			return value{}, err
		}
		if v < 0 {
			v = -v
		}
		return scalar(v), nil
	case "min", "max":
		if len(ex.Args) != 2 {
			return value{}, c.errf(ex.NamePos, "%s expects 2 arguments", ex.Name)
		}
		a, err := c.evalInt(ex.Args[0], e)
		if err != nil {
			return value{}, err
		}
		b, err := c.evalInt(ex.Args[1], e)
		if err != nil {
			return value{}, err
		}
		if (ex.Name == "min") == (a < b) {
			return scalar(a), nil
		}
		return scalar(b), nil
	}
	fn := c.r.prog.Func(ex.Name)
	if fn == nil {
		return value{}, c.errf(ex.NamePos, "call to undefined function %q", ex.Name)
	}
	// Evaluate arguments onto the arena's scratch stack; callFunction
	// copies them into parameter cells, so the slice is dead after the
	// call and the stack truncates back for the caller's frame. Nested
	// calls inside argument expressions push and pop deeper segments —
	// a realloc by an inner call leaves this frame's earlier snapshot
	// intact, and the final args slice is taken only after the last
	// append.
	off := len(c.ar.vals)
	for _, a := range ex.Args {
		v, err := c.evalExpr(a, e)
		if err != nil {
			c.ar.vals = c.ar.vals[:off]
			return value{}, err
		}
		c.ar.vals = append(c.ar.vals, v)
	}
	args := c.ar.vals[off:]
	ret, err := c.callFunction(fn, args, ex.NamePos)
	c.ar.vals = c.ar.vals[:off]
	return scalar(ret), err
}

//
// MPI statement execution
//

func (c *thctx) execMPI(s *ast.MPIStmt, e *env) error {
	loc := s.KindPos.String()
	tid := c.th.ID()
	if c.trace {
		// Same-rank MPI call order is semantically visible (sequencing
		// rules, concurrent-call detection), so every call writes its
		// rank's call slot; cross-rank order stays free to commute.
		c.tagMPIEntry()
	}

	evalOr := func(ex ast.Expr, def int64) (int64, error) {
		if ex == nil {
			return def, nil
		}
		return c.evalInt(ex, e)
	}

	switch s.Kind {
	case ast.MPIInit:
		return c.p.Init(tid)
	case ast.MPIFinalize:
		return c.p.Finalize(tid)
	case ast.MPISend:
		v, err := c.evalInt(s.Src, e)
		if err != nil {
			return err
		}
		dest, err := c.evalInt(s.Dest, e)
		if err != nil {
			return err
		}
		tag, err := evalOr(s.Tag, 0)
		if err != nil {
			return err
		}
		if c.trace {
			c.tagSend(int(dest), int(tag))
		}
		c.r.p2p++
		return c.p.Send(tid, v, int(dest), int(tag), loc)
	case ast.MPIRecv:
		src, err := c.evalInt(s.Dest, e)
		if err != nil {
			return err
		}
		tag, err := evalOr(s.Tag, 0)
		if err != nil {
			return err
		}
		var sendEP monitor.Obj
		var matchK uint64
		if c.trace {
			sendEP, matchK = c.tagRecvEntry(int(src), int(tag))
		}
		c.r.p2p++
		v, err := c.p.Recv(tid, int(src), int(tag), loc)
		if err != nil {
			return err
		}
		if c.trace {
			// The acquire lands in the post-return event, after the
			// matching send's release in trace order.
			c.tagRecvDone(sendEP, matchK)
		}
		return c.assign(s.Dst, ast.AssignSet, v, e)
	}

	// Collectives.
	op, err := collOp(s.Kind)
	if err != nil {
		return c.errf(s.KindPos, "%v", err)
	}
	red, err := mpi.ParseRedOp(s.OpName)
	if err != nil {
		return c.errf(s.KindPos, "%v", err)
	}
	root64, err := evalOr(s.Root, 0)
	if err != nil {
		return err
	}
	root := int(root64)

	var contribValue int64
	var contribVector []int64
	switch s.Kind {
	case ast.MPIBarrier:
	case ast.MPIBcast:
		v, err := c.lvalueValue(s.Dst, e)
		if err != nil {
			return err
		}
		contribValue = v
	case ast.MPIReduce, ast.MPIAllreduce, ast.MPIScan, ast.MPIGather, ast.MPIAllgather:
		v, err := c.evalInt(s.Src, e)
		if err != nil {
			return err
		}
		contribValue = v
	case ast.MPIScatter, ast.MPIAlltoall:
		arr, err := c.arrayValue(s.Src, e)
		if err != nil {
			return err
		}
		contribVector = arr
	}

	var collK uint64
	if c.trace {
		collK = c.tagCollEntry()
	}
	c.r.collectives++
	// The matcher copies the vector at the call, and the value oracle
	// compares that copy with the live array at the match.
	outV, outVec, err := c.p.CollectiveLive(tid, op, red, root, contribValue, contribVector, contribVector, loc)
	if err != nil {
		return err
	}
	if c.trace {
		// The completed rendezvous ordered this thread behind every
		// rank's arrival of round collK.
		c.tagCollDone(collK)
	}

	switch s.Kind {
	case ast.MPIBarrier:
		return nil
	case ast.MPIBcast, ast.MPIAllreduce, ast.MPIScan, ast.MPIScatter:
		return c.assign(s.Dst, ast.AssignSet, outV, e)
	case ast.MPIReduce:
		if c.p.Rank() == root {
			return c.assign(s.Dst, ast.AssignSet, outV, e)
		}
		return nil
	case ast.MPIGather:
		if c.p.Rank() == root {
			return c.storeVector(s.Dst, outVec, e)
		}
		return nil
	case ast.MPIAllgather, ast.MPIAlltoall:
		return c.storeVector(s.Dst, outVec, e)
	}
	return nil
}

func collOp(k ast.MPIKind) (mpi.Op, error) {
	switch k {
	case ast.MPIBarrier:
		return mpi.OpBarrier, nil
	case ast.MPIBcast:
		return mpi.OpBcast, nil
	case ast.MPIReduce:
		return mpi.OpReduce, nil
	case ast.MPIAllreduce:
		return mpi.OpAllreduce, nil
	case ast.MPIGather:
		return mpi.OpGather, nil
	case ast.MPIAllgather:
		return mpi.OpAllgather, nil
	case ast.MPIScatter:
		return mpi.OpScatter, nil
	case ast.MPIAlltoall:
		return mpi.OpAlltoall, nil
	case ast.MPIScan:
		return mpi.OpScan, nil
	}
	return 0, fmt.Errorf("not a collective: %v", k)
}

// lvalueValue reads the current scalar value of an lvalue (Bcast source).
func (c *thctx) lvalueValue(lv ast.LValue, e *env) (int64, error) {
	v, err := c.evalExpr(lv, e)
	if err != nil {
		return 0, err
	}
	if v.arr != nil {
		return 0, c.errf(lv.Pos(), "array used where a scalar is needed")
	}
	return v.i, nil
}

// arrayValue returns the named array's live backing array
// (Scatter/Alltoall contribution).
func (c *thctx) arrayValue(ex ast.Expr, e *env) ([]int64, error) {
	v, err := c.evalExpr(ex, e)
	if err != nil {
		return nil, err
	}
	if v.arr == nil {
		return nil, c.errf(ex.Pos(), "array expected")
	}
	if c.trace {
		// The snapshot feeds a collective result, so every element read
		// is verdict-visible and must participate in conflict detection.
		for i := range v.arr {
			c.tagRead(elemObj(v, int64(i)))
		}
	}
	return v.arr, nil
}

// storeVector copies a collective's vector result into the destination
// array (up to its length).
func (c *thctx) storeVector(lv ast.LValue, vec []int64, e *env) error {
	ref, ok := lv.(*ast.VarRef)
	if !ok {
		return c.errf(lv.Pos(), "vector destination must be an array variable")
	}
	cl := e.lookup(ref.Name)
	if cl == nil {
		return c.errf(ref.NamePos, "undefined variable %q", ref.Name)
	}
	v := cl.v
	if v.arr == nil {
		return c.errf(ref.NamePos, "vector destination %q must be an array", ref.Name)
	}
	for i := 0; i < len(v.arr) && i < len(vec); i++ {
		if c.trace {
			c.tagWrite(elemObj(v, int64(i)))
		}
		v.arr[i] = vec[i]
	}
	return nil
}
