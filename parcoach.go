// Package parcoach is a Go reproduction of "Static/Dynamic Validation of
// MPI Collective Communications in Multi-threaded Context" (Saillard,
// Carribault, Barthou — PPoPP 2015), the multi-threaded extension of
// PARCOACH.
//
// The package compiles MiniHybrid programs (a small MPI+OpenMP-shaped
// language, see internal/parser) through a full pipeline:
//
//	parse → semantic checks → constant folding → CFG
//	[→ compile-time verification] [→ selective instrumentation of
//	flagged functions] → dead-node elimination
//
// and can execute the result on a simulated MPI world with fork/join
// thread teams, where the planted runtime checks stop erroneous runs with
// located error messages before they deadlock.
//
// A compile is one straight-line sequence of stages on the caller's
// goroutine, each timed under its name in Timing.Passes, the way the
// paper's analysis runs as one more pass of GCC's middle end, function
// by function. Parallelism is coarse-grained: CompileBatch compiles
// whole files at once on a worker pool, and exploration and campaigns
// fan their runs and jobs out on theirs.
//
// Typical use:
//
//	prog, err := parcoach.Compile("bench.mh", src, parcoach.Options{Mode: parcoach.ModeFull})
//	for _, d := range prog.Diagnostics() { fmt.Println(d) }
//	res := prog.Run(parcoach.RunOptions{Procs: 4, Threads: 4})
package parcoach

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"time"

	"parcoach/internal/ast"
	"parcoach/internal/campaign"
	"parcoach/internal/cfg"
	"parcoach/internal/core"
	"parcoach/internal/dom"
	"parcoach/internal/explore"
	"parcoach/internal/instrument"
	"parcoach/internal/interp"
	"parcoach/internal/mhgen"
	"parcoach/internal/parser"
	"parcoach/internal/passes"
	"parcoach/internal/pipeline"
	"parcoach/internal/sem"
)

// Mode selects how much of the paper's tooling runs during compilation.
type Mode int

// Compilation modes, matching the bars of the paper's Figure 1.
const (
	// ModeBaseline compiles without any verification (the 100% baseline).
	ModeBaseline Mode = iota
	// ModeAnalyze adds the compile-time verification (warnings only).
	ModeAnalyze
	// ModeFull adds verification-code generation: flagged functions are
	// instrumented and the instrumented code is what gets run.
	ModeFull
)

func (m Mode) String() string {
	switch m {
	case ModeBaseline:
		return "baseline"
	case ModeAnalyze:
		return "warnings"
	case ModeFull:
		return "warnings+codegen"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Context re-exports the initial-context option.
type Context = core.Context

// Initial contexts for the analysis.
const (
	ContextMonothreaded  = core.ContextMonothreaded
	ContextMultithreaded = core.ContextMultithreaded
)

// Diagnostic re-exports the analysis warning type.
type Diagnostic = core.Diagnostic

// Options configures Compile and CompileBatch.
type Options struct {
	// Mode selects baseline / warnings / warnings+codegen (default
	// ModeFull).
	Mode Mode
	// Initial is the threading context assumed at program start.
	Initial Context
	// RawPDF disables the rank-dependence refinement of phase 3
	// (ablation: the unrefined PDF+ of PARCOACH Algorithm 1).
	RawPDF bool
	// Workers sets how many files CompileBatch compiles at once (0 means
	// runtime.GOMAXPROCS(0)). Compile ignores it: every compile runs its
	// stages serially on the caller's goroutine.
	Workers int
}

// PassTime records the wall-clock time of one compile stage.
type PassTime struct {
	Name     string
	Duration time.Duration
}

// Timing records where compilation time went; the Figure 1 harness reads
// it to separate analysis and instrumentation cost from the baseline.
type Timing struct {
	Frontend   time.Duration // lex, parse, semantic checks
	Analysis   time.Duration // the paper's three compile-time phases
	Instrument time.Duration // verification-code generation
	Backend    time.Duration // fold, cfg and dce
	Total      time.Duration
	// Passes holds the wall-clock time of every compile stage in
	// execution order (the fine-grained view the buckets above sum up).
	Passes []PassTime
}

// CompileStats summarizes the compiled artifact.
type CompileStats struct {
	Functions  int
	Statements int
	CFGNodes   int
	CFGEdges   int
	Folds      passes.FoldStats
	DeadNodes  int
	Checks     instrument.Stats

	// IRInsts is always 0: no compile stage lowers to an IR.
	//
	// Deprecated: nothing writes it.
	IRInsts int
	// Spills is always 0: no compile stage allocates registers.
	//
	// Deprecated: nothing writes it.
	Spills int
}

// Program is a compiled MiniHybrid program.
type Program struct {
	Name string
	// Source is the parsed, analysed program.
	Source *ast.Program
	// Instrumented is the verification-instrumented tree (ModeFull with
	// findings), or nil.
	Instrumented *ast.Program
	// Analysis holds the compile-time verification result (nil in
	// ModeBaseline).
	Analysis *core.Result
	// Graphs holds the compile's final artifact: the per-function CFGs
	// the analysis rode on (rebuilt for the functions codegen
	// rewrote), after dead-node elimination, the last stage.
	Graphs map[string]*cfg.Graph
	// Timing and Stats describe the compilation itself.
	Timing Timing
	Stats  CompileStats

	opts Options
}

// File is one source file of a batch compilation.
type File struct {
	Name   string
	Source string
}

// Compile runs the compile stages on src. Parse and semantic errors
// abort; the verification phases never fail compilation — they produce
// Diagnostics.
//
// The stages mirror how PARCOACH sits in GCC's middle end: the baseline
// compiler folds constants and builds the CFG anyway; the analysis is an
// extra pass over those existing graphs; verification-code generation
// rewrites only the flagged functions (selective instrumentation) and
// rebuilds just their graphs before dead-node elimination, the last
// stage, finishes the job.
func Compile(name, src string, opts Options) (*Program, error) {
	return CompileCtx(context.Background(), name, src, opts)
}

// CompileBatch compiles many programs, opts.Workers files at once on a
// worker pool — the entry point for heavy compile traffic.
//
// The returned slice is parallel to files; entries whose compilation
// failed are nil and their errors are joined into the returned error.
// Every program is identical to what a Compile of that file produces.
func CompileBatch(files []File, opts Options) ([]*Program, error) {
	progs := make([]*Program, len(files))
	errs := make([]error, len(files))
	pipeline.NewPool(opts.Workers).Map(len(files), func(i int) {
		progs[i], errs[i] = Compile(files[i].Name, files[i].Source, opts)
	})
	return progs, errors.Join(errs...)
}

// CacheKey names the compiled artifact of (name, src, opts): a
// versioned SHA-256 over the source bytes and the canonicalized
// options. Two submissions with the same key compile to byte-identical
// diagnostics, stats, instrumented trees and graphs, so a cache
// (cmd/parcoachd's artifact cache) may serve either's Program for both.
//
// Canonicalization: only the fields that change the compiled artifact
// participate — Mode, Initial, RawPDF. Workers is excluded: it sets
// only CompileBatch's width and cannot change a program. The name
// participates because diagnostics embed it in their positions.
func CacheKey(name, src string, opts Options) string {
	h := sha256.New()
	h.Write([]byte("parcoach-artifact-v1\x00"))
	h.Write([]byte(name))
	h.Write([]byte{0})
	h.Write([]byte(src))
	h.Write([]byte{0})
	fmt.Fprintf(h, "mode=%d;initial=%d;rawpdf=%t", opts.Mode, opts.Initial, opts.RawPDF)
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

// Compiler compiles exactly like Compile; it keeps callers of the
// earlier pooled compiler building.
//
// Deprecated: call Compile or CompileCtx.
type Compiler struct{}

// NewCompiler returns a Compiler. The width is ignored.
//
// Deprecated: call Compile or CompileCtx.
func NewCompiler(workers int) *Compiler { return &Compiler{} }

// Compile is the package-level Compile.
//
// Deprecated: call Compile.
func (c *Compiler) Compile(name, src string, opts Options) (*Program, error) {
	return Compile(name, src, opts)
}

// stages times a compile's stages laid end to end: next ends the
// running stage, checks the context and starts the named one.
type stages struct {
	ctx    context.Context
	passes []PassTime
	at     time.Time
}

func (s *stages) next(name string) error {
	s.end()
	if err := context.Cause(s.ctx); err != nil {
		return err
	}
	s.passes = append(s.passes, PassTime{Name: name})
	s.at = time.Now()
	return nil
}

// end records the running stage's time.
func (s *stages) end() {
	if n := len(s.passes); n > 0 {
		s.passes[n-1].Duration = time.Since(s.at)
	}
}

// CompileCtx is Compile under a context, checked before each stage, so
// an abandoned request (the daemon's disconnected client) stops within
// one stage. A canceled compile returns context.Cause(ctx) and no
// program; callers that cache errors must not cache those.
func CompileCtx(ctx context.Context, name, src string, opts Options) (*Program, error) {
	start := time.Now()
	p := &Program{Name: name, opts: opts}
	st := stages{ctx: ctx}

	if err := st.next("frontend"); err != nil {
		return nil, err
	}
	prog, err := parser.Parse(name, src)
	if err != nil {
		return nil, err
	}
	if err := sem.Check(prog); err != nil {
		return nil, err
	}
	p.Source = prog

	if err := st.next("fold"); err != nil {
		return nil, err
	}
	folded, foldStats := passes.FoldProgram(prog)
	p.Stats.Folds = foldStats

	if err := st.next("cfg"); err != nil {
		return nil, err
	}
	graphs := make(map[string]*cfg.Graph, len(folded.Funcs))
	for _, fn := range folded.Funcs {
		graphs[fn.Name] = cfg.Build(fn)
	}

	if opts.Mode >= ModeAnalyze {
		if err := st.next("dominators"); err != nil {
			return nil, err
		}
		doms := make(map[string]*dom.Tree, len(folded.Funcs))
		for _, fn := range folded.Funcs {
			doms[fn.Name] = dom.Dominators(graphs[fn.Name])
		}
		if err := st.next("analysis-begin"); err != nil {
			return nil, err
		}
		an := core.Begin(folded, core.Options{
			Initial: opts.Initial, RawPDF: opts.RawPDF, Graphs: graphs, Doms: doms,
		})
		for _, stage := range []struct {
			name string
			run  func()
		}{
			{"analysis-prepare", an.Prepare},
			{"taint", an.ComputeTaint},
			{"contexts", an.ComputeContexts},
			{"summaries", an.ComputeSummaries},
			{"check", an.Check},
		} {
			if err := st.next(stage.name); err != nil {
				return nil, err
			}
			stage.run()
		}
		if err := st.next("analysis-finish"); err != nil {
			return nil, err
		}
		p.Analysis = an.Finish()
	}

	if opts.Mode >= ModeFull {
		// Selective instrumentation: only flagged functions are rewritten
		// and get fresh graphs; with no findings the folded tree ships.
		if err := st.next("instrument"); err != nil {
			return nil, err
		}
		if p.Analysis.NeedsInstrumentation() {
			p.Instrumented = instrument.Program(folded, p.Analysis)
			for _, fn := range p.Instrumented.Funcs {
				if fa := p.Analysis.Funcs[fn.Name]; fa != nil && fa.NeedsInstrumentation {
					graphs[fn.Name] = cfg.Build(fn)
				}
			}
			p.Stats.Checks = instrument.Count(p.Instrumented)
		}
	}

	if err := st.next("dce"); err != nil {
		return nil, err
	}
	for _, fn := range folded.Funcs {
		g := graphs[fn.Name]
		p.Stats.DeadNodes += passes.EliminateDead(g)
		nodes, edges := g.Size()
		p.Stats.CFGNodes += nodes
		p.Stats.CFGEdges += edges
	}
	p.Graphs = graphs
	st.end()

	p.Timing.Passes = st.passes
	for _, pt := range p.Timing.Passes {
		switch pt.Name {
		case "frontend":
			p.Timing.Frontend += pt.Duration
		case "instrument":
			p.Timing.Instrument += pt.Duration
		case "dominators", "analysis-begin", "analysis-prepare", "taint",
			"contexts", "summaries", "check", "analysis-finish":
			p.Timing.Analysis += pt.Duration
		default: // fold, cfg, dce
			p.Timing.Backend += pt.Duration
		}
	}
	p.Stats.Functions = len(prog.Funcs)
	p.Stats.Statements = ast.CountStmts(prog)
	p.Timing.Total = time.Since(start)
	return p, nil
}

// Diagnostics returns the analysis warnings (empty in ModeBaseline),
// sorted into a canonical order.
func (p *Program) Diagnostics() []Diagnostic {
	if p.Analysis == nil {
		return nil
	}
	return p.Analysis.Diags
}

// Warnings returns only the error-class diagnostics.
func (p *Program) Warnings() []Diagnostic {
	if p.Analysis == nil {
		return nil
	}
	return p.Analysis.Errors()
}

// WarningKinds returns the sorted, deduplicated kind names of the
// error-class diagnostics — the static half of a program's verdict, as
// the differential harness (internal/mhgen/diff) and the report tables
// consume it. Empty means statically clean.
func (p *Program) WarningKinds() []string {
	seen := make(map[string]bool)
	var kinds []string
	for _, d := range p.Warnings() {
		name := d.Kind.String()
		if !seen[name] {
			seen[name] = true
			kinds = append(kinds, name)
		}
	}
	sort.Strings(kinds)
	return kinds
}

// RunOutcome classifies how a run ended; it re-exports the interpreter's
// outcome classes so harnesses can cross-check the dynamic verdict
// (which layer stopped the run) against the static one.
type RunOutcome = interp.Outcome

// Run outcome classes.
const (
	// RunClean: the run completed without error.
	RunClean = interp.OutcomeClean
	// RunCheckAbort: a planted runtime check stopped the run.
	RunCheckAbort = interp.OutcomeCheckAbort
	// RunMPIError: the simulated MPI library rejected the run.
	RunMPIError = interp.OutcomeMPIError
	// RunDeadlock: the run controller's deadlock oracle fired.
	RunDeadlock = interp.OutcomeDeadlock
	// RunRuntimeError: a plain execution error.
	RunRuntimeError = interp.OutcomeRuntimeError
	// RunBudget: the run exhausted its step budget (a spinning schedule,
	// distinct from a deadlock).
	RunBudget = interp.OutcomeBudget
	// RunValueError: the value oracle flagged data-level disagreement in
	// a collective round whose sequence matched (divergent roots,
	// mismatched reduction ops, a torn source buffer, or a result
	// differing from the oracle's recomputation).
	RunValueError = interp.OutcomeValueError
	// RunCanceled: the run was stopped by external cancellation (client
	// disconnect, SIGTERM, -timeout); says nothing about the program.
	RunCanceled = interp.OutcomeCanceled
	// RunTimeout: the per-run wall-clock watchdog fired.
	RunTimeout = interp.OutcomeTimeout
	// RunInternalError: the run or its compile panicked and was
	// quarantined — a validator bug, not a program verdict.
	RunInternalError = interp.OutcomeInternalError
)

// ClassifyRun maps a run error to its outcome class (nil means RunClean).
func ClassifyRun(err error) RunOutcome { return interp.ClassifyError(err) }

// RunOptions configures execution on the simulated runtime.
type RunOptions = interp.Options

// RunResult is the outcome of executing a program.
type RunResult = interp.Result

// NewSession prepares the program for repeated runs under opts; every
// run of a Program goes through it. The session executes the
// instrumented tree when codegen produced one, unless uninstrumented
// asks for the pristine source. Instrumented sessions of ModeFull
// programs arm the verifier's value oracle alongside the planted
// checks — value bugs are statically invisible, so the oracle is tied
// to the mode, not to whether instrumentation rewrote anything.
//
// A scheduled run names its scheduler when it runs:
// prog.NewSession(opts, false).Run(sched.NewRandom(seed)).
func (p *Program) NewSession(opts RunOptions, uninstrumented bool) *interp.Session {
	target := p.Source
	if !uninstrumented {
		if p.Instrumented != nil {
			target = p.Instrumented
		}
		if p.opts.Mode >= ModeFull {
			opts.ValueCheck = true
		}
	}
	return interp.NewSession(target, opts)
}

// Run executes the program once under the default schedule, on
// NewSession(opts, false): the run is serialized and deterministic, so
// repeated runs answer byte-identically, output order included, and a
// panic on a simulated thread ends the run as an internal error.
func (p *Program) Run(opts RunOptions) *RunResult {
	return p.NewSession(opts, false).Run(nil)
}

// ExploreOptions configures schedule exploration (see internal/explore):
// strategy (round-robin, seeded random, PCT, bounded exhaustive DFS),
// run budget, seed, and run parameters.
type ExploreOptions = explore.Options

// ExplorationReport summarizes the schedule space of one program: how
// many interleavings ran, the distinct outcome classes they produced,
// and a replayable token for the first failing schedule.
type ExplorationReport = explore.Report

// ExploreStrategy re-exports the exploration strategy selector.
type ExploreStrategy = explore.Strategy

// Exploration strategies.
const (
	// ExploreRoundRobin runs the single deterministic reference schedule.
	ExploreRoundRobin = explore.StrategyRoundRobin
	// ExploreRandom samples seeded uniform schedules.
	ExploreRandom = explore.StrategyRandom
	// ExplorePCT samples random-priority schedules with bounded
	// priority-change depth.
	ExplorePCT = explore.StrategyPCT
	// ExploreDFS enumerates interleavings exhaustively up to the budget,
	// under dynamic partial-order reduction: only the orders of racing
	// steps are varied.
	ExploreDFS = explore.StrategyDFS
)

// ExploreFrontierDPOR is the only value of the ignored
// ExploreOptions.Frontier field.
//
// Deprecated: DFS always runs dynamic partial-order reduction.
var ExploreFrontierDPOR = explore.FrontierDPOR

// Explore runs the program on NewSession(opts.RunOptions(), false)
// under many interleavings and reports the distinct verdicts the
// schedule space contains. A single run validates one interleaving;
// Explore is the dynamic layer's answer to schedule-dependent bugs.
// Explorations under other run options (thread level, policy, the
// pristine tree) pass their own session to explore.ExploreSession.
func (p *Program) Explore(opts ExploreOptions) *ExplorationReport {
	return explore.ExploreSession(p.NewSession(opts.RunOptions(), false), opts)
}

// RunUninstrumented executes the pristine source regardless of mode (used
// by the overhead experiments to compare against instrumented runs).
func (p *Program) RunUninstrumented(opts RunOptions) *RunResult {
	return p.NewSession(opts, true).Run(nil)
}

// CampaignOptions configures an exploration campaign over generated
// programs (internal/campaign): a corpus of mhgen seeds is explored
// with the total schedule budget allocated by marginal coverage —
// entries whose schedules keep producing novel coverage keys
// (positional state signatures, verdict classes, happens-before edge
// shapes, static warning kinds) earn more schedules, dry entries are
// retired, and mutation (seed neighborhoods, schedule-prefix splicing)
// grows the corpus. A campaign is a pure function of its options:
// reports are byte-identical at any Workers value.
type CampaignOptions = campaign.Options

// CampaignReport re-exports the campaign's result.
type CampaignReport = campaign.Report

// campaignMaxSteps bounds each campaign run, as the differential
// harness does.
const campaignMaxSteps = 2_000_000

// Campaign runs a coverage-guided exploration campaign on one worker
// pool: every corpus entry, mutant and reduction candidate compiles
// (ModeFull, so planted checks and the value oracle are armed) inside
// the campaign's pooled jobs, and all schedule execution fans out on the
// same pool.
func Campaign(opts CampaignOptions) (*CampaignReport, error) {
	compile := func(gp *mhgen.Program) (*campaign.Compiled, error) {
		p, err := compileQuarantined(gp.Name+".mh", gp.Source, Options{Mode: ModeFull})
		if err != nil {
			return nil, err
		}
		sess := p.NewSession(RunOptions{
			Procs:       gp.Procs,
			Threads:     gp.Threads,
			MaxSteps:    campaignMaxSteps,
			WallTimeout: opts.RunTimeout,
		}, false)
		return &campaign.Compiled{Session: sess, StaticKinds: p.WarningKinds()}, nil
	}
	return campaign.Run(opts, compile, pipeline.NewPool(opts.Workers))
}

// compileQuarantined is Compile with a panic caught and returned as a
// QuarantineError at "compile": a generated program that crashes the
// compiler fails that entry's compile, not the campaign.
func compileQuarantined(name, src string, opts Options) (p *Program, err error) {
	defer func() {
		if r := recover(); r != nil {
			p, err = nil, interp.NewQuarantineError("compile", r, debug.Stack())
		}
	}()
	return Compile(name, src, opts)
}
