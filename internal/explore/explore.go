// Package explore is the schedule-exploration engine of the dynamic
// validator: it runs one program under many thread interleavings
// (internal/sched), classifies every run through the interpreter's
// outcome classes, and reduces the results to an ExplorationReport —
// which distinct verdicts the schedule space contains, and a replayable
// token for the first failing schedule.
//
// A single run of the dynamic layer only validates the one interleaving
// that happened; a concurrency bug whose manifestation needs a
// particular election order or arrival order stays invisible. Exploring
// the schedule space is what turns the runtime checker into a validator,
// which is why the differential harness (internal/mhgen/diff) judges the
// schedule-dependent planted bug classes against the exploration verdict
// rather than a single run.
//
// Strategies:
//
//   - round-robin: the one deterministic reference schedule (one run);
//   - random: N independent runs under seeded uniform schedulers;
//   - pct: N runs under random-priority schedulers with depth-bounded
//     priority change points (probabilistic concurrency testing);
//   - dfs: bounded exhaustive enumeration under dynamic partial-order
//     reduction (dpor.go) — each run records its branch points and its
//     happens-before event trace, and only the reversals its racing
//     decisions require become new prefixes to explore, until the
//     frontier drains or the budget is spent. The frontier runs in
//     rounds of at most 16 prefixes whose results are merged serially,
//     so the explored set does not depend on the worker count.
//
// Runs fan out over a worker pool (internal/pipeline.Pool) and share
// one interp.Session, so the compiled artifact and the session's pooled
// run environments are reused by every schedule instead of being rebuilt
// per run. Every report is a function of the program and the options alone,
// at any worker count.
package explore

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"sync"

	"parcoach/internal/ast"
	"parcoach/internal/chaos"
	"parcoach/internal/interp"
	"parcoach/internal/pipeline"
	"parcoach/internal/sched"
)

// Strategy selects how the schedule space is sampled.
type Strategy int

// Exploration strategies.
const (
	// StrategyRoundRobin runs the single deterministic reference
	// schedule.
	StrategyRoundRobin Strategy = iota
	// StrategyRandom samples N uniform seeded schedules.
	StrategyRandom
	// StrategyPCT samples N random-priority schedules with bounded
	// priority-change depth.
	StrategyPCT
	// StrategyDFS enumerates interleavings exhaustively (bounded by the
	// schedule budget) under dynamic partial-order reduction: only the
	// orderings of racing steps are varied.
	StrategyDFS
)

var strategyNames = [...]string{
	StrategyRoundRobin: "rr",
	StrategyRandom:     "random",
	StrategyPCT:        "pct",
	StrategyDFS:        "dfs",
}

func (s Strategy) String() string {
	if int(s) < len(strategyNames) {
		return strategyNames[s]
	}
	return "strategy(?)"
}

// ParseStrategy maps a CLI name ("rr", "random", "pct", "dfs") to its
// strategy.
func ParseStrategy(name string) (Strategy, error) {
	for i, n := range strategyNames {
		if n == name {
			return Strategy(i), nil
		}
	}
	return 0, fmt.Errorf("explore: unknown strategy %q (want rr|random|pct|dfs)", name)
}

// Frontier is the type of the ignored Options.Frontier field. It is
// zero-sized: FrontierDPOR is its only value.
//
// Deprecated: DFS always runs dynamic partial-order reduction.
type Frontier struct{}

// FrontierDPOR is the only Frontier value.
//
// Deprecated: DFS always runs dynamic partial-order reduction.
var FrontierDPOR Frontier

// Options configures an exploration.
type Options struct {
	// Strategy selects the schedule sampler (default StrategyRandom).
	Strategy Strategy
	// Schedules is the run budget (default 16; round-robin always runs
	// exactly 1).
	Schedules int
	// Seed seeds the random and PCT samplers and is the base of the
	// per-run seeds (run i uses Seed+i).
	Seed int64
	// PCTDepth is the PCT priority-change depth (default 3).
	PCTDepth int
	// Procs, Threads and MaxSteps configure the session Explore builds
	// (see RunOptions); ExploreSession reads none of them.
	Procs    int
	Threads  int
	MaxSteps int64
	// Workers is the worker-pool width for concurrent runs (0 =
	// GOMAXPROCS). Reports are byte-identical at any width, for every
	// strategy, budget-truncated DFS included. A DFS runs at most 16
	// prefixes at once (see dpor.go), so widths above 16 do not speed
	// it up.
	Workers int
	// Frontier is ignored.
	//
	// Deprecated: DFS always runs dynamic partial-order reduction.
	Frontier Frontier
	// Progress, when non-nil, is called once per completed run,
	// serialized by the engine (implementations need no locking). It
	// powers streamed exploration (parcoachd's NDJSON /explore):
	// verdict deltas and failing replay tokens surface while the
	// exploration is still running. The sampling strategies call it in
	// completion order; DFS calls it in merge order, so a DFS stream is
	// the same at any worker count. Neither is the canonical order of
	// the final Report — for DFS the report is reduced in trace order
	// after the frontier ends — so Done counts and First indices may
	// differ between the stream and the report; the verdict *set* is
	// identical.
	Progress func(ProgressEvent)
	// Ctx, when non-nil, cancels the exploration: runs not yet started
	// are skipped, the run in flight is aborted at its next statement
	// boundary (interp.RunCtx), and the engine returns a well-formed
	// partial report with Canceled set. Canceled runs are excluded from
	// Schedules and the verdict aggregation — a half-run says nothing
	// about the program.
	Ctx context.Context
}

// DefaultMaxSteps is the per-schedule statement budget when Options
// leaves MaxSteps zero. Deliberately far below the interpreter's plain
// default: exploration runs many schedules, and a replay of a
// budget-exhausted schedule must use the same bound to reproduce (the
// hybridrun -replay path defaults to this value).
const DefaultMaxSteps = 1_000_000

// RunOptions is the session configuration Explore runs under: Procs
// and Threads, and MaxSteps defaulted to DefaultMaxSteps. Every other
// run option keeps the session default.
func (o Options) RunOptions() interp.Options {
	if o.MaxSteps <= 0 {
		o.MaxSteps = DefaultMaxSteps
	}
	return interp.Options{Procs: o.Procs, Threads: o.Threads, MaxSteps: o.MaxSteps}
}

func (o Options) normalized() Options {
	if o.Schedules <= 0 {
		o.Schedules = 16
	}
	if o.Strategy == StrategyRoundRobin {
		o.Schedules = 1
	}
	if o.PCTDepth <= 0 {
		o.PCTDepth = 3
	}
	return o
}

// Verdict aggregates the runs that ended in one outcome class.
type Verdict struct {
	// Outcome is the shared outcome class.
	Outcome interp.Outcome
	// Count is how many explored schedules ended this way.
	Count int
	// First is the 0-based index of the first run with this outcome
	// (the schedules-to-first-detection metric). For the sampling
	// strategies the order is exploration (submission) order; for DFS
	// it is the canonical trace order of the explored set (see
	// mergeDFS), so it does not depend on which worker finished first.
	First int
	// Sample is the error text of the first such run ("" for clean).
	Sample string
	// Schedule is the replay token of the first such run; feeding it to
	// sched.Parse (or hybridrun -replay) reproduces the run exactly.
	Schedule string
}

// Failure names the first explored schedule whose run did not complete
// cleanly.
type Failure struct {
	Outcome interp.Outcome
	// Err is the run error text.
	Err string
	// Schedule is the replayable token.
	Schedule string
	// Index is the 0-based position in exploration order (sampling) or
	// canonical trace order (DFS) — the "schedules to first detection"
	// metric of the differential matrix.
	Index int
}

// Report is the result of exploring one program's schedule space.
type Report struct {
	// Strategy that produced the report.
	Strategy Strategy
	// Schedules actually run (≤ the budget).
	Schedules int
	// Exhausted is true when DFS drained its frontier within budget:
	// every interleaving was covered, up to reordering of steps the
	// partial-order reduction proved commute. A run that was canceled
	// or quarantined leaves its subtree unexplored, so it clears
	// Exhausted. Sampling strategies always report false.
	Exhausted bool
	// SleepSkips counts DFS backtrack candidates suppressed by the
	// sleep-set ledger: reversals some other run had already spawned or
	// explored.
	SleepSkips int
	// Diverged counts DFS replays whose recorded prefix stopped matching
	// the program (nonzero only for nondeterministic programs).
	Diverged int
	// Verdicts holds one entry per distinct outcome class observed,
	// sorted by outcome.
	Verdicts []Verdict
	// FirstFailure is the earliest non-clean schedule, or nil when every
	// explored schedule completed cleanly.
	FirstFailure *Failure
	// Canceled is true when Options.Ctx was canceled before the budget
	// drained: the report is a well-formed reduction of the runs that
	// completed, not of the full budget. DFS additionally reports
	// Exhausted=false.
	Canceled bool
	// Quarantined counts runs that panicked and were caught at the run
	// boundary (OutcomeInternalError) — validator bugs, not program
	// verdicts. They do appear in Verdicts (so they are visible), and are
	// summed here for the robustness counters.
	Quarantined int
}

// Verdict returns the aggregate for an outcome class, or nil if no
// explored schedule ended that way.
func (r *Report) Verdict(o interp.Outcome) *Verdict {
	for i := range r.Verdicts {
		if r.Verdicts[i].Outcome == o {
			return &r.Verdicts[i]
		}
	}
	return nil
}

// Caught reports whether any explored schedule ended in the given
// outcome class.
func (r *Report) Caught(o interp.Outcome) bool { return r.Verdict(o) != nil }

// String renders the report in the compact form the hybridrun CLI
// prints.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "exploration: strategy=%s schedules=%d", r.Strategy, r.Schedules)
	if r.Strategy == StrategyDFS {
		fmt.Fprintf(&b, " exhausted=%t", r.Exhausted)
		if r.SleepSkips > 0 {
			fmt.Fprintf(&b, " sleepskips=%d", r.SleepSkips)
		}
	}
	if r.Canceled {
		b.WriteString(" canceled=true")
	}
	if r.Quarantined > 0 {
		fmt.Fprintf(&b, " quarantined=%d", r.Quarantined)
	}
	b.WriteString("\n")
	for _, v := range r.Verdicts {
		fmt.Fprintf(&b, "  %-16s ×%-4d", v.Outcome, v.Count)
		if v.Outcome != interp.OutcomeClean {
			fmt.Fprintf(&b, " first schedule: %s", v.Schedule)
		}
		b.WriteString("\n")
	}
	if r.FirstFailure != nil {
		fmt.Fprintf(&b, "  first failure at schedule %d (%s): %s\n    replay with: -replay '%s'\n",
			r.FirstFailure.Index, r.FirstFailure.Outcome,
			firstLine(r.FirstFailure.Err), r.FirstFailure.Schedule)
	}
	return b.String()
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// ProgressEvent describes one completed run to Options.Progress.
type ProgressEvent struct {
	// Done is how many runs have completed so far, this one included.
	Done int
	// Outcome is this run's outcome class.
	Outcome interp.Outcome
	// NewVerdict is true when this is the first completed run with this
	// outcome class — the verdict-delta signal a streaming consumer
	// forwards.
	NewVerdict bool
	// Err is the run's error text ("" for clean).
	Err string
	// Schedule is this run's replay token.
	Schedule string
}

// progressSink serializes Options.Progress calls and tracks which
// outcome classes have been seen, so NewVerdict is exact even when
// workers complete runs concurrently.
type progressSink struct {
	mu   sync.Mutex
	fn   func(ProgressEvent)
	done int
	seen map[interp.Outcome]bool
}

func newProgressSink(fn func(ProgressEvent)) *progressSink {
	if fn == nil {
		return nil
	}
	return &progressSink{fn: fn, seen: make(map[interp.Outcome]bool)}
}

// note reports one completed run. Its error text and replay token are
// rendered only when a sink exists, so the no-progress path keeps its
// error values unformatted.
func (p *progressSink) note(r *run) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.done++
	ev := ProgressEvent{
		Done:       p.done,
		Outcome:    r.outcome,
		NewVerdict: !p.seen[r.outcome],
		Err:        errText(r.err),
		Schedule:   r.schedule(),
	}
	p.seen[r.outcome] = true
	// Deliver under the lock: events arrive strictly in Done order,
	// which is what lets a streaming consumer write them straight out.
	p.fn(ev)
	p.mu.Unlock()
}

// run is one explored schedule's classified result. Thousands of
// failing runs share a handful of verdicts, so a run keeps its error as
// a value and a DFS run its branch trace: the (deadlock-report-sized)
// error text and the trace's replay token are rendered only for the
// runs the report quotes.
type run struct {
	outcome interp.Outcome
	err     error
	// token names a sampled run; a DFS run has none and is named by
	// trace, the branch decisions it took.
	token    string
	trace    []sched.ThreadID
	diverged bool
}

// schedule returns the replay token of the run.
func (r *run) schedule() string {
	if r.token != "" {
		return r.token
	}
	return sched.FormatTrace(r.trace)
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// Explore runs prog under opts.Schedules interleavings and reduces the
// outcomes. The report is deterministic for a fixed (program, options)
// pair at any worker count.
func Explore(prog *ast.Program, opts Options) *Report {
	// One session for the whole exploration: the compiled artifact,
	// resolved entry point and pooled run environments are shared
	// across every schedule, so per-run setup is amortized instead of
	// paid opts.Schedules times.
	return ExploreSession(interp.NewSession(prog, opts.RunOptions()), opts)
}

// ExploreSession explores on an existing session — the entry point for
// callers that keep sessions warm across many explorations of the same
// artifact (parcoachd's per-artifact session pools): the session's
// pooled run state carries over, so repeated /explore requests skip
// per-schedule setup entirely. The session's own run options (procs,
// threads, level, policy, step budget, value oracle, watchdog) govern
// the runs; ExploreSession reads none of Procs, Threads and MaxSteps.
func ExploreSession(sess *interp.Session, opts Options) *Report {
	opts = opts.normalized()
	rep := &Report{Strategy: opts.Strategy}
	if ctxErr(opts.Ctx) != nil {
		// Already canceled: a well-formed empty report beats a refused run
		// per schedule.
		rep.Canceled = true
		return rep
	}
	pool := pipeline.NewPool(opts.Workers)
	sink := newProgressSink(opts.Progress)
	switch opts.Strategy {
	case StrategyDFS:
		exploreDFS(sess, opts, pool, rep, sink)
	default:
		exploreSampled(sess, opts, pool, rep, sink)
	}
	sort.Slice(rep.Verdicts, func(i, j int) bool { return rep.Verdicts[i].Outcome < rep.Verdicts[j].Outcome })
	if ctxErr(opts.Ctx) != nil {
		rep.Canceled = true
	}
	if v := rep.Verdict(interp.OutcomeInternalError); v != nil {
		rep.Quarantined = v.Count
	}
	return rep
}

// ctxErr is context.Cause tolerant of a nil context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return context.Cause(ctx)
}

// runOne executes one schedule, sampled or DFS; the caller names the
// run. It is a quarantine boundary: a panic anywhere under the run is
// caught here, classified OutcomeInternalError and reported as
// quarantined, and the exploration continues on the remaining schedules
// instead of taking the process down.
func runOne(ctx context.Context, sess *interp.Session, s sched.Scheduler) (r run, quarantined bool) {
	defer func() {
		if rec := recover(); rec != nil {
			r = run{outcome: interp.OutcomeInternalError, err: interp.NewQuarantineError("explore.run", rec, debug.Stack())}
			quarantined = true
		}
	}()
	chaos.Here("explore.run")
	res := sess.RunCtx(ctx, s)
	return run{outcome: res.Outcome(), err: res.Err, diverged: res.Diverged}, false
}

// merge folds one run, in report order, into the report, rendering the
// error text and replay token of the runs the report quotes.
func (r *Report) merge(one *run) {
	idx := r.Schedules
	r.Schedules++
	if v := r.Verdict(one.outcome); v != nil {
		v.Count++
	} else {
		r.Verdicts = append(r.Verdicts, Verdict{
			Outcome: one.outcome, Count: 1, First: idx, Sample: errText(one.err), Schedule: one.schedule(),
		})
	}
	if one.outcome != interp.OutcomeClean && r.FirstFailure == nil {
		r.FirstFailure = &Failure{
			Outcome: one.outcome, Err: errText(one.err), Schedule: one.schedule(), Index: idx,
		}
	}
}

// sampledBlock is the most sampled schedules built ahead of their
// runs: memory before the first result stays flat in the budget.
const sampledBlock = 1024

// exploreSampled runs the independent sampling strategies concurrently,
// a block at a time: each block's schedules are built, run on the pool
// and merged before the next block is built.
func exploreSampled(sess *interp.Session, opts Options, pool *pipeline.Pool, rep *Report, sink *progressSink) {
	results := make([]run, min(sampledBlock, opts.Schedules))
	ran := make([]bool, len(results))
	for first := 0; first < opts.Schedules && ctxErr(opts.Ctx) == nil; first += len(results) {
		n := min(len(results), opts.Schedules-first)
		clear(ran)
		pool.MapCtx(opts.Ctx, n, func(i int) {
			s, token := opts.sampled(opts.Seed + int64(first+i))
			one := &results[i]
			*one, _ = runOne(opts.Ctx, sess, s)
			one.token = token
			ran[i] = true
			if one.outcome == interp.OutcomeCanceled {
				// An aborted half-run carries no verdict; don't stream it.
				return
			}
			sink.note(one)
		})
		// Merge in submission order so the report (and
		// FirstFailure.Index) is identical at any worker count.
		// Schedules the cancellation skipped (never started) or aborted
		// mid-run are excluded: the report reduces only completed runs.
		for i := range n {
			if !ran[i] || results[i].outcome == interp.OutcomeCanceled {
				continue
			}
			rep.merge(&results[i])
		}
	}
}

// sampled returns the sampling strategy's scheduler for one seed and
// the replay token that names it.
func (opts Options) sampled(seed int64) (sched.Scheduler, string) {
	switch opts.Strategy {
	case StrategyRoundRobin:
		return sched.NewRoundRobin(), sched.RoundRobinToken
	case StrategyPCT:
		return sched.NewPCT(seed, opts.PCTDepth, 0), sched.PCTToken(seed, opts.PCTDepth)
	default:
		return sched.NewRandom(seed), sched.RandomToken(seed)
	}
}

//
// Bounded-exhaustive DFS.
//
// The frontier (dpor.go) enumerates the prefix tree by iterative
// replay: each run follows a decision prefix and records every branch
// point it passes, and the reversals its race analysis requires become
// new prefixes. mergeDFS reduces the completed runs.
//

// childKey folds a (tree node, branch) pair into one sleep-set ledger
// key. The node is already an FNV decision-path hash; the branch is
// mixed in with a splitmix64 round so pairs spread over the full key
// space.
func childKey(node uint64, alt sched.ThreadID) uint64 {
	z := node + (uint64(alt)+1)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

// lessTrace orders branch traces lexicographically (traces are
// prefix-free — equal decisions replay to equal runs — so element-wise
// comparison fully orders them). This is the canonical schedule order
// of a DFS report: left-to-right over the prefix tree, independent of
// the discovery order any worker count produced.
func lessTrace(a, b []sched.ThreadID) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// mergeDFS reduces the completed runs into the report in canonical
// trace order, so Verdict.First, FirstFailure and the report rendering
// are a function of the explored *set* — not of the order the frontier
// discovered it in.
func mergeDFS(rep *Report, runs []run, leftover bool, diverged int) {
	sort.Slice(runs, func(i, j int) bool { return lessTrace(runs[i].trace, runs[j].trace) })
	for i := range runs {
		rep.merge(&runs[i])
	}
	rep.Diverged = diverged
	rep.Exhausted = !leftover
}

// exploreDFS runs the prefix tree's frontier on the pool and reduces
// its runs.
func exploreDFS(sess *interp.Session, opts Options, pool *pipeline.Pool, rep *Report, sink *progressSink) {
	runs, leftover, diverged, sleepSkips := dporFrontier(sess, opts, pool, sink)
	mergeDFS(rep, runs, leftover, diverged)
	rep.SleepSkips = sleepSkips
}
