// Session: amortized per-run setup for schedule exploration.
//
// A single Run is a one-shot: resolve main, build the simulated world,
// allocate per-rank runtime state, execute, tear down. Schedule
// exploration runs the same compiled artifact thousands of times, so
// Session hoists everything that depends only on (program, options) —
// option normalization, the main-function lookup — and recycles the
// per-run state (runner scratch, per-rank threading runtime and
// environment arenas, the scheduling controller's gates) through pools,
// bringing per-schedule setup close to zero.
//
// All pools recycle only once the run has drained: the monitor marks
// when the last straggler goroutine lets go of the run state. A wedged
// straggler would block that drain forever, so the wait is bounded
// (Options.DrainTimeout): past the deadline the run's world, monitor,
// controller and rank state are abandoned to the GC — never reused —
// and the leak is counted (Abandoned), keeping a long-lived warm pool
// (parcoachd) alive through a bad run instead of losing a slot forever.
package interp

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"parcoach/internal/ast"
	"parcoach/internal/mpi"
	"parcoach/internal/omp"
	"parcoach/internal/sched"
	"parcoach/internal/verifier"
)

// Session is a reusable harness for running one compiled program many
// times (typically under different schedulers — see internal/explore).
// It is safe for concurrent use: independent runs may execute on many
// goroutines at once.
type Session struct {
	prog   *ast.Program
	opts   Options
	mainFn *ast.FuncDecl
	// envs pools complete run environments — world, monitor (with its
	// waiter free list), verifier, runner scratch — across this
	// session's runs.
	envs sync.Pool
	// abandoned counts runs whose state never drained within
	// DrainTimeout and was leaked to the GC instead of recycled.
	abandoned atomic.Int64
	// watchdogs counts runs the wall-clock watchdog aborted; canceled
	// counts runs stopped by context cancellation.
	watchdogs atomic.Int64
	canceled  atomic.Int64
}

// Abandoned reports how many of this session's runs wedged past
// Options.DrainTimeout and had their run state abandoned instead of
// recycled. A nonzero count means some schedule left a straggler
// goroutine blocked outside the monitor's control; the session itself
// stays fully usable (fresh state is built on demand).
func (s *Session) Abandoned() int64 { return s.abandoned.Load() }

// Watchdogs reports how many of this session's runs were aborted by the
// wall-clock watchdog (Options.WallTimeout); Canceled how many were
// stopped by context cancellation (RunCtx). Both leave the session
// fully usable — aborted runs recycle (or, if wedged, are abandoned and
// counted by Abandoned as well).
func (s *Session) Watchdogs() int64 { return s.watchdogs.Load() }

// Canceled reports how many of this session's runs a canceled context
// stopped (including runs refused before starting).
func (s *Session) Canceled() int64 { return s.canceled.Load() }

// abandonedWorlds counts drain-timeout leaks process-wide, for the
// daemon's /stats endpoint.
var abandonedWorlds atomic.Int64

// AbandonedWorlds reports the process-wide count of runs abandoned on
// drain timeout across all sessions.
func AbandonedWorlds() int64 { return abandonedWorlds.Load() }

// runEnv bundles the per-run machinery that recycles as a unit: the
// simulated world (whose monitor keeps the world's and verifier's
// deadlock analyzers registered across resets), the verifier hanging
// off that monitor, and the runner scratch.
type runEnv struct {
	world *mpi.World
	r     *runner
}

// NewSession prepares prog for repeated runs under opts (normalized
// once here; each Run names its own scheduler).
func NewSession(prog *ast.Program, opts Options) *Session {
	if opts.Procs <= 0 {
		opts.Procs = 2
	}
	if opts.Threads <= 0 {
		opts.Threads = 2
	}
	if opts.Level == 0 {
		opts.Level = mpi.ThreadMultiple
	}
	if opts.MaxSteps <= 0 {
		opts.MaxSteps = 50_000_000
	}
	if opts.DrainTimeout == 0 {
		opts.DrainTimeout = DefaultDrainTimeout
	}
	return &Session{prog: prog, opts: opts, mainFn: prog.Func("main")}
}

// testWedge, when set by a test, runs against the world's monitor just
// before the run starts — the regression hook that plants a phantom
// live thread so the drain can never complete.
var testWedge func(world *mpi.World)

// testStep, when set by a test, runs before every statement of a
// serialized thread — the hook that panics on a chosen statement.
var testStep func(rank, tid, line int)

// rankState is the per-rank run state — the thread-local environment
// arena and the per-process threading runtime — recycled across runs so
// each explored schedule reuses the previous one's allocations instead
// of rebuilding them.
type rankState struct {
	ar *arena
	rt *omp.Runtime
}

var rankPool = sync.Pool{New: func() any { return &rankState{ar: getArena()} }}

// Run executes the program once. A non-nil scheduler serializes the
// run: exactly one simulated thread executes at a time and the
// scheduler picks, at every statement boundary and blocking transition,
// which enabled thread runs next (see internal/sched). nil keeps the
// free-running goroutine execution.
func (s *Session) Run(scheduler sched.Scheduler) *Result {
	return s.RunCtx(nil, scheduler)
}

// RunCtx is Run under a context: when ctx is canceled the run is
// aborted (CancelError / OutcomeCanceled) within one statement boundary
// of a serialized run — the bounded-latency cancellation path streamed
// exploration and the daemon ride on. A nil (or never-canceled) ctx
// adds nothing to the hot path.
func (s *Session) RunCtx(ctx context.Context, scheduler sched.Scheduler) *Result {
	opts := s.opts
	if opts.Procs > maxWidth || opts.Threads > maxWidth {
		return &Result{Err: &RuntimeError{Pos: s.prog.Pos(), Msg: fmt.Sprintf(
			"%d processes of %d threads exceed the limit of %d", opts.Procs, opts.Threads, maxWidth)}}
	}
	if ctx != nil {
		if err := context.Cause(ctx); err != nil {
			// Refuse to start: a canceled caller wants its slot back, not
			// one more full run.
			s.canceled.Add(1)
			canceledRuns.Add(1)
			return &Result{Err: &CancelError{Cause: err}, ExitValues: make([]int64, opts.Procs)}
		}
	}
	res := &Result{ExitValues: make([]int64, opts.Procs)}
	if s.mainFn == nil {
		res.Err = &RuntimeError{Pos: s.prog.Pos(), Msg: "program has no main function"}
		return res
	}
	var env *runEnv
	if v := s.envs.Get(); v != nil {
		env = v.(*runEnv)
		env.world.Reset()
		env.r.ver.Reset()
	} else {
		world, err := mpi.NewWorld(mpi.Config{Procs: opts.Procs, Level: opts.Level})
		if err != nil {
			res.Err = err
			return res
		}
		env = &runEnv{world: world, r: new(runner)}
		env.r.ver = verifier.New(world.Monitor(), opts.Procs)
		if opts.ValueCheck {
			// The round observer survives World.Reset (like the monitor's
			// analyzers), so pooled envs stay armed across reuse.
			env.r.ver.AttachWorld(world)
		}
	}
	world := env.world
	r := env.r
	r.rebind(s.prog, opts, world)
	tracing := false
	if scheduler != nil {
		r.ctl = sched.NewController(scheduler, opts.Procs)
		if _, ok := scheduler.(sched.TraceSource); ok {
			tracing = true
			if r.tr == nil || len(r.tr.collSeq) != opts.Procs {
				r.tr = newTraceRT(opts.Procs)
			} else {
				r.tr.reset()
			}
		}
		world.Monitor().SetSched(r.ctl)
	}
	if testWedge != nil {
		testWedge(world)
	}
	guard := s.armGuard(ctx, world.Monitor())
	ranks := make([]*rankState, opts.Procs)
	err := world.Run(func(p *mpi.Proc) error {
		var gate *sched.Gate
		if r.ctl != nil {
			gate = r.ctl.ProcGate(p.Rank())
			gate.Attach()
		}
		rs := rankPool.Get().(*rankState)
		ranks[p.Rank()] = rs // disjoint slot per rank
		if rs.rt == nil {
			rs.rt = omp.New(world.Monitor(), opts.Threads, opts.Policy)
		} else {
			rs.rt.Reset(world.Monitor(), opts.Threads, opts.Policy)
		}
		th := rs.rt.InitialThread()
		c := &thctx{r: r, p: p, rt: rs.rt, th: th, fn: s.mainFn.Name, gate: gate, ar: rs.ar, trace: tracing}
		ret, err := c.callFunction(s.mainFn, nil, s.mainFn.NamePos)
		if err != nil {
			return err
		}
		r.mu.Lock()
		res.ExitValues[p.Rank()] = ret
		r.mu.Unlock()
		return nil
	})
	res.Err = err
	if guard != nil {
		// Disarm before any recycling: after disarm returns, no late
		// guard callback can abort the monitor this env is about to
		// recycle into its next run.
		canceled, timedOut := guard.disarm()
		if canceled {
			s.canceled.Add(1)
			canceledRuns.Add(1)
		}
		if timedOut {
			s.watchdogs.Add(1)
			watchdogRuns.Add(1)
		}
	}
	// Wait for the last goroutine to deregister before reading results
	// or recycling. World.Run returning only joins the process mains —
	// a team worker released from its final join barrier (or, after an
	// abort, a free-running straggler that may still print or bump
	// counters) can still be between wake-up and ThreadExited, touching
	// the runner, its team, runtime and scheduling gate; once the
	// monitor drains, nothing can reach the run state anymore, so the
	// output/stats reads are race-free and clean and aborted runs alike
	// recycle everything. (Abort unwinding is bounded: every waiter is
	// woken with the abort error and every statement boundary checks
	// the abort flag.)
	//
	// The wait itself is bounded: a straggler wedged outside the
	// monitor's control (or a monitor whose live count never returns to
	// zero) would otherwise park this goroutine forever — in a daemon's
	// warm pool that is a permanently leaked slot per bad run. Past
	// DrainTimeout the run's whole state is abandoned, never reused.
	drained := world.Monitor().Drained()
	select {
	case <-drained:
	default:
		if s.opts.DrainTimeout < 0 {
			<-drained
		} else {
			timer := time.NewTimer(s.opts.DrainTimeout)
			select {
			case <-drained:
				timer.Stop()
			case <-timer.C:
				return s.abandon(res, r)
			}
		}
	}
	res.Output = r.output.String()
	res.Stats = Stats{
		Collectives: atomic.LoadInt64(&r.collectives),
		P2PMessages: atomic.LoadInt64(&r.p2p),
		Barriers:    atomic.LoadInt64(&r.barriers),
		Steps:       atomic.LoadInt64(&r.steps),
	}
	res.Stats.CCChecks, res.Stats.PhaseChecks, res.Stats.ValueChecks = r.ver.Stats()
	for _, rs := range ranks {
		if rs != nil {
			rankPool.Put(rs)
		}
	}
	if r.ctl != nil {
		r.ctl.Recycle()
		r.ctl = nil
	}
	s.envs.Put(env)
	return res
}

// abandon finishes a run whose state never drained: nothing is
// recycled — the world, monitor, verifier, controller, rank state and
// runner stay referenced by whatever goroutine wedged and go to the GC
// with it — and the leak is counted. Only straggler-safe fields are
// read: the output buffer under the runner's own lock, the counters
// with atomic loads, the check counts under the monitor lock. The
// session stays usable; the next Run builds fresh state on demand.
func (s *Session) abandon(res *Result, r *runner) *Result {
	s.abandoned.Add(1)
	abandonedWorlds.Add(1)
	r.mu.Lock()
	res.Output = r.output.String()
	r.mu.Unlock()
	res.Stats = Stats{
		Collectives: atomic.LoadInt64(&r.collectives),
		P2PMessages: atomic.LoadInt64(&r.p2p),
		Barriers:    atomic.LoadInt64(&r.barriers),
		Steps:       atomic.LoadInt64(&r.steps),
	}
	res.Stats.CCChecks, res.Stats.PhaseChecks, res.Stats.ValueChecks = r.ver.Stats()
	return res
}

// rebind points a (new or recycled) runner at the next run.
func (r *runner) rebind(prog *ast.Program, opts Options, world *mpi.World) {
	r.prog = prog
	r.opts = opts
	r.world = world
	r.ctl = nil
	r.output.Reset()
	r.steps = 0
	r.collectives = 0
	r.p2p = 0
	r.barriers = 0
}
