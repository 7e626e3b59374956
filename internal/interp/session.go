// Session: amortized per-run setup for schedule exploration.
//
// A single Run is a one-shot: resolve the program, build the simulated
// world, allocate per-rank runtime state, execute, tear down. Schedule
// exploration runs the same compiled artifact thousands of times, so
// Session hoists everything that depends only on (program, options) —
// option normalization, and resolving the program into the closures
// every run executes (resolve.go) — and recycles the per-run state
// (the world with its scheduling controller and gates, runner scratch,
// per-rank threading runtime and frame arenas) through pools, bringing
// per-schedule setup close to zero.
//
// A run's World.Run returns only once every thread of the run has
// returned, so nothing can touch the run state afterwards: clean and
// aborted runs alike recycle everything at once.
package interp

import (
	"context"
	"fmt"
	"sync"

	"parcoach/internal/ast"
	"parcoach/internal/mpi"
	"parcoach/internal/omp"
	"parcoach/internal/sched"
	"parcoach/internal/verifier"
)

// Session is a reusable harness for running one compiled program many
// times (typically under different schedulers — see internal/explore).
// NewSession resolves the program once; every run executes the result.
// It is safe for concurrent use: independent runs may execute on many
// goroutines at once, sharing the resolved closures read-only.
type Session struct {
	prog *ast.Program
	opts Options
	// main is the program resolved into closures (see resolve.go),
	// shared read-only by every run; nil when there is no main.
	main *funcCode
	// envs pools complete run environments — world, controller,
	// verifier, runner scratch — across this session's runs.
	envs sync.Pool
}

// runEnv bundles the per-run machinery that recycles as a unit: the
// simulated world and its scheduling controller (which keeps the
// world's and verifier's deadlock analyzers registered across resets),
// the verifier waiting through that controller, and the runner scratch.
type runEnv struct {
	world *mpi.World
	r     *runner
}

// NewSession prepares prog for repeated runs under opts: the options
// are normalized and the program resolved into closures once here, and
// each Run names its own scheduler.
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
	return &Session{prog: prog, opts: opts, main: resolve(prog)}
}

// testStep, when set by a test, runs before every statement — the hook
// that panics on a chosen statement.
var testStep func(rank, tid, line int)

// rankState is the per-rank run state — the thread-local frame
// arena and the per-process threading runtime — recycled across runs so
// each explored schedule reuses the previous one's allocations instead
// of rebuilding them.
type rankState struct {
	ar *arena
	rt *omp.Runtime
}

var rankPool = sync.Pool{New: func() any { return &rankState{ar: getArena()} }}

// Run executes the program once, serialized: exactly one simulated
// thread executes at a time and the scheduler picks, at every statement
// boundary and blocking transition, which enabled thread runs next (see
// internal/sched). A nil scheduler means the default one, a quantum
// round-robin, so a default run is as reproducible as any other.
func (s *Session) Run(scheduler sched.Scheduler) *Result {
	return s.RunCtx(nil, scheduler)
}

// RunCtx is Run under a context: when ctx is canceled the run is
// aborted (CancelError / OutcomeCanceled) within one statement boundary
// — the bounded-latency cancellation path streamed exploration and the
// daemon ride on. A nil (or never-canceled) ctx adds nothing to the hot
// path.
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
			canceledRuns.Add(1)
			return &Result{Err: &CancelError{Cause: err}, ExitValues: make([]int64, opts.Procs)}
		}
	}
	res := &Result{ExitValues: make([]int64, opts.Procs)}
	if s.main == nil {
		res.Err = &RuntimeError{Pos: s.prog.Pos(), Msg: "program has no main function"}
		return res
	}
	var env *runEnv
	if v := s.envs.Get(); v != nil {
		env = v.(*runEnv)
		env.r.ver.Reset()
	} else {
		world, err := mpi.NewWorld(mpi.Config{Procs: opts.Procs, Level: opts.Level})
		if err != nil {
			res.Err = err
			return res
		}
		env = &runEnv{world: world, r: new(runner)}
		env.r.ver = verifier.New(world.Controller(), opts.Procs)
		if opts.ValueCheck {
			// The round observer survives World.Reset (like the
			// controller's analyzers), so pooled envs stay armed across
			// reuse.
			env.r.ver.AttachWorld(world)
		}
	}
	world := env.world
	world.Reset(scheduler)
	r := env.r
	r.rebind(opts, world)
	_, tracing := scheduler.(sched.TraceSource)
	if tracing {
		if r.tr == nil || len(r.tr.collSeq) != opts.Procs {
			r.tr = newTraceRT(opts.Procs)
		} else {
			r.tr.reset()
		}
	}
	guard := s.armGuard(ctx, r.ctl)
	ranks := make([]*rankState, opts.Procs)
	err := world.Run(func(p *mpi.Proc) error {
		gate := r.ctl.Running()
		rs := rankPool.Get().(*rankState)
		ranks[p.Rank()] = rs // disjoint slot per rank
		if rs.rt == nil {
			rs.rt = omp.New(r.ctl, opts.Threads, opts.Policy)
		} else {
			rs.rt.Reset(r.ctl, opts.Threads, opts.Policy)
		}
		th := rs.rt.InitialThread()
		c := &thctx{r: r, p: p, rt: rs.rt, th: th, gate: gate, ar: rs.ar, trace: tracing}
		ret, err := c.runMain(s.main)
		if err != nil {
			return err
		}
		res.ExitValues[p.Rank()] = ret
		return nil
	})
	res.Err = err
	if guard != nil {
		// Disarm before any recycling: after disarm returns, no late
		// guard callback can interrupt the controller this env is about
		// to recycle into its next run.
		canceled, timedOut := guard.disarm()
		if canceled {
			canceledRuns.Add(1)
		}
		if timedOut {
			watchdogRuns.Add(1)
		}
	}
	res.Output = r.output.String()
	res.Stats = Stats{
		Collectives: r.collectives,
		P2PMessages: r.p2p,
		Barriers:    r.barriers,
		Steps:       r.steps,
	}
	res.Stats.CCChecks, res.Stats.PhaseChecks, res.Stats.ValueChecks = r.ver.Stats()
	for _, rs := range ranks {
		if rs != nil {
			rankPool.Put(rs)
		}
	}
	s.envs.Put(env)
	return res
}

// rebind points a (new or recycled) runner at the next run.
func (r *runner) rebind(opts Options, world *mpi.World) {
	r.opts = opts
	r.world = world
	r.ctl = world.Controller()
	r.output.Reset()
	r.steps = 0
	r.collectives = 0
	r.p2p = 0
	r.barriers = 0
	r.arrayElems = 0
}
