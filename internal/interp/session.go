// Session: amortized per-run setup for schedule exploration.
//
// Schedule exploration runs the same compiled artifact thousands of
// times, so a Session hoists everything that depends only on (program,
// options) — option normalization, and resolving the program into the
// closures every run executes (resolve.go) — and keeps its per-run state
// in run environments it pools and reuses. A run environment (runner) is
// built once, with the session's options, and reset per run: it owns the
// simulated world with its scheduling controller, the verifier, one
// threading runtime per rank, the trace counters, the output buffer, the
// run counters and the free lists of frames and thread contexts
// (arena.go), which brings per-schedule setup close to zero.
//
// A run's World.Run returns only once every thread of the run has
// returned — a panic on a thread or on the driver included — so nothing
// can touch the run state afterwards: clean and aborted runs alike hand
// their environment back whole.
package interp

import (
	"bytes"
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
	// envs pools the session's run environments (*runner).
	envs sync.Pool
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

// testStep, when set by a test, runs before every statement (the hook
// that panics on a chosen statement), and testSched wraps every run's
// scheduler (the hook that panics on the driver).
var (
	testStep  func(rank, tid, line int)
	testSched func(sched.Scheduler) sched.Scheduler
)

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
// path. A run under a sched.Recorder reports whether it followed the
// recorded prefix (Result.Diverged), a run that never started included.
func (s *Session) RunCtx(ctx context.Context, scheduler sched.Scheduler) (res *Result) {
	if rec, ok := scheduler.(*sched.Recorder); ok {
		defer func() { res.Diverged = rec.Diverged() }()
	}
	if testSched != nil {
		scheduler = testSched(scheduler)
	}
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
	res = &Result{ExitValues: make([]int64, opts.Procs)}
	if s.main == nil {
		res.Err = &RuntimeError{Pos: s.prog.Pos(), Msg: "program has no main function"}
		return res
	}
	r, err := s.env()
	if err != nil {
		res.Err = err
		return res
	}
	// A scheduler traces only with a trace to record into, as in
	// Controller.Reset: otherwise every access would be tagged into gate
	// buffers that nothing flushes.
	ts, tracing := scheduler.(sched.TraceSource)
	tracing = tracing && ts.EventTrace() != nil
	r.reset(scheduler, tracing)
	guard := s.armGuard(ctx, r.ctl)
	res.Err = r.world.Run(func(p *mpi.Proc) error {
		rt := r.rts[p.Rank()]
		c := r.newThctx()
		c.r, c.p, c.rt, c.th, c.gate, c.trace = r, p, rt, rt.InitialThread(), r.ctl.Running(), tracing
		ret, err := c.runMain(s.main)
		if err != nil {
			return err
		}
		r.putThctx(c)
		res.ExitValues[p.Rank()] = ret
		return nil
	})
	if guard != nil {
		// Disarm before the environment goes back: after disarm returns,
		// no late guard callback can interrupt the controller of the
		// environment's next run.
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
	s.envs.Put(r)
	return res
}

// env takes a pooled run environment, or builds one.
func (s *Session) env() (*runner, error) {
	if v := s.envs.Get(); v != nil {
		return v.(*runner), nil
	}
	return newRunner(s.opts)
}

// runner is a session's run environment, which owns every per-run
// object: built once by newRunner, reset per run. Only the running
// simulated thread touches it, so it takes no lock.
type runner struct {
	opts  Options
	world *mpi.World
	// ctl is the world's controller: it serializes the run, and every
	// wait and abort goes through it.
	ctl *sched.Controller
	ver *verifier.Verifier
	// rts holds each rank's threading runtime.
	rts []*omp.Runtime
	// tr holds the event-tracing round counters for runs whose scheduler
	// records an event trace for DPOR (see trace.go); nil until the
	// first such run.
	tr *traceRT

	output bytes.Buffer

	steps       int64
	collectives int64
	p2p         int64
	barriers    int64
	// arrayElems counts the array elements declared so far, against
	// maxArrayElems.
	arrayElems int64

	// frames and ctxs are the free lists of frames and thread contexts
	// the run's threads share (see arena.go).
	frames []*frame
	ctxs   []*thctx
}

// newRunner builds a run environment for runs under opts. The world's
// controller keeps the world's and the verifier's deadlock analyzers,
// and the world the value oracle's round observer, for the
// environment's life.
func newRunner(opts Options) (*runner, error) {
	world, err := mpi.NewWorld(mpi.Config{Procs: opts.Procs, Level: opts.Level})
	if err != nil {
		return nil, err
	}
	r := &runner{opts: opts, world: world, ctl: world.Controller()}
	r.ver = verifier.New(r.ctl, opts.Procs)
	if opts.ValueCheck {
		r.ver.AttachWorld(world)
	}
	for range opts.Procs {
		r.rts = append(r.rts, omp.New(r.ctl, opts.Threads, opts.Policy))
	}
	return r, nil
}

// reset rearms the environment for a run driven by s; tracing reports
// whether s records an event trace.
func (r *runner) reset(s sched.Scheduler, tracing bool) {
	r.world.Reset(s)
	r.ver.Reset()
	for _, rt := range r.rts {
		rt.Reset()
	}
	if tracing {
		if r.tr == nil {
			r.tr = newTraceRT(r.opts.Procs)
		} else {
			r.tr.reset()
		}
	}
	r.output.Reset()
	r.steps, r.collectives, r.p2p, r.barriers, r.arrayElems = 0, 0, 0, 0, 0
}
