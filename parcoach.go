// Package parcoach is a Go reproduction of "Static/Dynamic Validation of
// MPI Collective Communications in Multi-threaded Context" (Saillard,
// Carribault, Barthou — PPoPP 2015), the multi-threaded extension of
// PARCOACH.
//
// The package compiles MiniHybrid programs (a small MPI+OpenMP-shaped
// language, see internal/parser) through a full pipeline:
//
//	parse → semantic checks → [compile-time verification] →
//	constant folding → CFG + dead-node elimination → linear IR
//	[→ selective instrumentation of flagged functions]
//
// and can execute the result on a simulated MPI world with fork/join
// thread teams, where the planted runtime checks stop erroneous runs with
// located error messages before they deadlock.
//
// The compile path runs on the internal/pipeline pass manager: every pass
// declares the per-function artifacts it produces and consumes (folded
// AST, CFG, dominators, parallelism words, summaries, analysis,
// instrumented bodies, IR, allocations), and function-level work fans out
// across a worker pool, with the interprocedural summary stage walking
// the call graph in SCC order so callee summaries exist before their
// callers are analysed. CompileBatch shares one pool across many
// programs; diagnostics and stats are identical for any worker count.
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
	// instrumented and the instrumented code is what gets lowered and run.
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
	// Workers sets the width of the compile worker pool: per-function
	// pipeline work (folding, CFG and dominator construction, the
	// parallelism-word and checking phases, instrumentation, lowering and
	// register allocation) fans across this many workers, and
	// CompileBatch additionally compiles whole files concurrently on the
	// same pool. 0 means runtime.GOMAXPROCS(0); 1 means fully serial.
	// Diagnostics, stats and generated code are identical for any value.
	Workers int
}

// PassTime re-exports the pipeline's per-pass timing entry.
type PassTime = pipeline.PassTime

// Timing records where compilation time went; the Figure 1 harness reads
// it to separate analysis and instrumentation cost from the baseline.
type Timing struct {
	Frontend   time.Duration // lex, parse, semantic checks
	Analysis   time.Duration // the paper's three compile-time phases
	Instrument time.Duration // verification-code generation
	Backend    time.Duration // folding, CFG, DCE, lowering
	Total      time.Duration
	// Passes holds the wall-clock time of every pipeline pass in
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
	IRInsts    int
	Spills     int
	Checks     instrument.Stats
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
	// Graphs holds the backend's final per-function CFGs (of the
	// instrumented functions where codegen rewrote them): the cached
	// artifacts the analysis rode on, after dead-node elimination.
	Graphs map[string]*cfg.Graph
	// IR is the lowered object code per function (of the instrumented
	// tree when present, else the folded source).
	IR map[string]*passes.FuncIR
	// Allocations holds the per-function register allocation results.
	Allocations map[string]*passes.Allocation
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

// Compile runs the pipeline on src. Parse and semantic errors abort; the
// verification phases never fail compilation — they produce Diagnostics.
//
// The pipeline mirrors how PARCOACH sits in GCC's middle end: the baseline
// compiler folds constants and builds the CFG anyway; the analysis is an
// extra pass over those existing graphs; verification-code generation
// rewrites only the flagged functions (selective instrumentation) and
// rebuilds just their graphs before the common DCE + lowering backend
// finishes the job.
func Compile(name, src string, opts Options) (*Program, error) {
	return compile(name, src, opts, pipeline.NewPool(opts.Workers))
}

// CompileBatch compiles many programs on one shared worker pool — the
// entry point for serving heavy compile traffic. Whole files compile
// concurrently and each file's per-function pipeline work fans out on the
// same pool, so the hardware stays busy whether the batch is many small
// programs or a few large ones.
//
// The returned slice is parallel to files; entries whose compilation
// failed are nil and their errors are joined into the returned error.
// Every program's diagnostics, stats and code are identical to what a
// serial Compile of that file produces.
func CompileBatch(files []File, opts Options) ([]*Program, error) {
	pool := pipeline.NewPool(opts.Workers)
	progs := make([]*Program, len(files))
	errs := make([]error, len(files))
	pool.Map(len(files), func(i int) {
		progs[i], errs[i] = compile(files[i].Name, files[i].Source, opts, pool)
	})
	return progs, errors.Join(errs...)
}

// CacheKey names the compiled artifact of (name, src, opts): a
// versioned SHA-256 over the source bytes and the canonicalized
// options. Two submissions with the same key compile to byte-identical
// diagnostics, stats and code, so a cache (cmd/parcoachd's artifact
// cache) may serve either's Program for both.
//
// Canonicalization: only the fields that change the compiled artifact
// participate — Mode, Initial, RawPDF. Workers is deliberately
// excluded (diagnostics, stats and generated code are identical for
// any worker count; letting pool width fragment the cache would make
// the hit rate depend on a knob that cannot change the answer). The
// name participates because diagnostics embed it in their positions.
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

// Compiler is the long-lived form of CompileBatch: one worker pool
// shared across every compilation for the life of the value, so a
// server compiling on demand (cmd/parcoachd) keeps its workers warm
// instead of rebuilding a pool per request. Safe for concurrent use.
type Compiler struct {
	pool *pipeline.Pool
}

// NewCompiler builds a compiler around a persistent pool of the given
// width (0 = GOMAXPROCS, 1 = serial), matching Options.Workers
// semantics. The Workers field of per-call Options is ignored — the
// shared pool is the width.
func NewCompiler(workers int) *Compiler {
	return &Compiler{pool: pipeline.NewPool(workers)}
}

// Compile runs the pipeline on src using the compiler's shared pool.
// Output is identical to a standalone Compile of the same inputs.
func (c *Compiler) Compile(name, src string, opts Options) (*Program, error) {
	return compile(name, src, opts, c.pool)
}

// CompileCtx is Compile with cooperative cancellation at pass
// boundaries; the daemon uses it so a disconnected client's compile
// stops early. Canceled compiles return the context's cause — callers
// that cache errors must take care not to cache those.
func (c *Compiler) CompileCtx(ctx context.Context, name, src string, opts Options) (*Program, error) {
	return compileCtx(ctx, name, src, opts, c.pool)
}

// compile builds and runs the pass pipeline for one source file on the
// given pool.
func compile(name, src string, opts Options, pool *pipeline.Pool) (*Program, error) {
	return compileCtx(nil, name, src, opts, pool)
}

// compileCtx is compile under a context: cancellation is observed at
// pass boundaries, so an abandoned request stops compiling within one
// pass instead of running the pipeline to completion for nobody.
func compileCtx(ctx context.Context, name, src string, opts Options, pool *pipeline.Pool) (*Program, error) {
	start := time.Now()
	p := &Program{Name: name, opts: opts}
	m := pipeline.New(pool)

	// Artifacts flowing between the passes below. Per-function slices are
	// indexed by position in Funcs; fan-out passes write disjoint slots.
	var (
		prog      *ast.Program // parsed + semantically checked
		folded    *ast.Program // constant-folded clone (the analysed tree)
		foldStats []passes.FoldStats
		graphs    map[string]*cfg.Graph
		glist     []*cfg.Graph // graphs in function order
		deadNodes []int
		doms      map[string]*dom.Tree
		an        *core.Analysis
		final     *ast.Program // tree the backend lowers
		irs       []*passes.FuncIR
		allocs    []*passes.Allocation
	)

	m.Add(pipeline.Pass{
		Name:     "frontend",
		Produces: []pipeline.Artifact{pipeline.ArtAST},
		Run: func() error {
			var err error
			if prog, err = parser.Parse(name, src); err != nil {
				return err
			}
			if err = sem.Check(prog); err != nil {
				return err
			}
			p.Source = prog
			return nil
		},
	})

	m.Add(pipeline.Pass{
		Name:     "fold",
		Consumes: []pipeline.Artifact{pipeline.ArtAST},
		Produces: []pipeline.Artifact{pipeline.ArtFoldedAST},
		Setup: func() error {
			folded = &ast.Program{
				File:    prog.File,
				Regions: prog.Regions,
				Funcs:   make([]*ast.FuncDecl, len(prog.Funcs)),
				ByName:  make(map[string]*ast.FuncDecl, len(prog.Funcs)),
			}
			foldStats = make([]passes.FoldStats, len(prog.Funcs))
			return nil
		},
		Items: func() int { return len(prog.Funcs) },
		RunItem: func(i int) error {
			fn := ast.CloneFunc(prog.Funcs[i])
			st := passes.FoldFunc(fn)
			folded.Funcs[i] = fn
			foldStats[i] = st
			return nil
		},
		After: func() error {
			for i, fn := range folded.Funcs {
				folded.ByName[fn.Name] = fn
				p.Stats.Folds = p.Stats.Folds.Add(foldStats[i])
			}
			final = folded
			return nil
		},
	})

	m.Add(pipeline.Pass{
		Name:     "cfg",
		Consumes: []pipeline.Artifact{pipeline.ArtFoldedAST},
		Produces: []pipeline.Artifact{pipeline.ArtCFG},
		Setup: func() error {
			glist = make([]*cfg.Graph, len(folded.Funcs))
			return nil
		},
		Items: func() int { return len(folded.Funcs) },
		RunItem: func(i int) error {
			glist[i] = cfg.Build(folded.Funcs[i])
			return nil
		},
		After: func() error {
			graphs = make(map[string]*cfg.Graph, len(glist))
			for i, fn := range folded.Funcs {
				graphs[fn.Name] = glist[i]
			}
			return nil
		},
	})

	if opts.Mode >= ModeAnalyze {
		addAnalysisPasses(m, p, opts, &folded, &graphs, &doms, &an)
	}

	if opts.Mode >= ModeFull {
		addInstrumentPass(m, p, &folded, &graphs, &final)
	}

	// The backend reads `final` and the graphs, which the instrument pass
	// rewrites in ModeFull — declare that, so the manager's wiring
	// validation catches any registration reorder that would silently
	// lower the un-instrumented tree.
	backendInputs := []pipeline.Artifact{pipeline.ArtCFG, pipeline.ArtFoldedAST}
	if opts.Mode >= ModeFull {
		backendInputs = append(backendInputs, pipeline.ArtInstrumented)
	}

	m.Add(pipeline.Pass{
		Name:     "dce",
		Consumes: backendInputs,
		Setup: func() error {
			// Re-snapshot: instrumentation may have swapped flagged
			// functions' graphs.
			glist = glist[:0]
			for _, fn := range final.Funcs {
				glist = append(glist, graphs[fn.Name])
			}
			deadNodes = make([]int, len(glist))
			return nil
		},
		Items: func() int { return len(glist) },
		RunItem: func(i int) error {
			deadNodes[i] = passes.EliminateDead(glist[i])
			return nil
		},
		After: func() error {
			for i, g := range glist {
				p.Stats.DeadNodes += deadNodes[i]
				nodes, edges := g.Size()
				p.Stats.CFGNodes += nodes
				p.Stats.CFGEdges += edges
			}
			p.Graphs = graphs
			return nil
		},
	})

	m.Add(pipeline.Pass{
		Name:     "lower",
		Consumes: backendInputs,
		Produces: []pipeline.Artifact{pipeline.ArtIR},
		Setup: func() error {
			irs = make([]*passes.FuncIR, len(final.Funcs))
			return nil
		},
		Items: func() int { return len(final.Funcs) },
		RunItem: func(i int) error {
			irs[i] = passes.Lower(final.Funcs[i])
			return nil
		},
		After: func() error {
			p.IR = make(map[string]*passes.FuncIR, len(irs))
			for i, fn := range final.Funcs {
				p.IR[fn.Name] = irs[i]
				p.Stats.IRInsts += len(irs[i].Insts)
			}
			return nil
		},
	})

	m.Add(pipeline.Pass{
		Name:     "regalloc",
		Consumes: []pipeline.Artifact{pipeline.ArtIR},
		Produces: []pipeline.Artifact{pipeline.ArtAllocation},
		Setup: func() error {
			allocs = make([]*passes.Allocation, len(irs))
			return nil
		},
		Items: func() int { return len(irs) },
		RunItem: func(i int) error {
			allocs[i] = passes.Optimize(irs[i])
			return nil
		},
		After: func() error {
			p.Allocations = make(map[string]*passes.Allocation, len(irs))
			for i, fn := range final.Funcs {
				p.Allocations[fn.Name] = allocs[i]
				p.Stats.Spills += allocs[i].Spills
			}
			return nil
		},
	})

	if err := m.RunCtx(ctx); err != nil {
		return nil, err
	}

	p.Timing.Passes = m.Timings()
	for _, pt := range p.Timing.Passes {
		switch pt.Name {
		case "frontend":
			p.Timing.Frontend += pt.Duration
		case "instrument":
			p.Timing.Instrument += pt.Duration
		case "dominators", "analysis-begin", "analysis-prepare", "taint",
			"contexts", "summaries", "check", "analysis-finish":
			p.Timing.Analysis += pt.Duration
		default: // fold, cfg, dce, lower, regalloc
			p.Timing.Backend += pt.Duration
		}
	}
	p.Stats.Functions = len(prog.Funcs)
	p.Stats.Statements = ast.CountStmts(prog)
	p.Timing.Total = time.Since(start)
	return p, nil
}

// addAnalysisPasses registers the compile-time verification stages: the
// dominator artifacts, the staged core analyzer (prepare → taint →
// contexts → SCC-ordered summaries → parallel per-function checking →
// deterministic merge). Parameters are pointers because the artifacts
// they read are only assigned when the earlier passes execute.
func addAnalysisPasses(m *pipeline.Manager, p *Program, opts Options,
	folded **ast.Program, graphs *map[string]*cfg.Graph, doms *map[string]*dom.Tree, an **core.Analysis) {

	var dlist []*dom.Tree
	m.Add(pipeline.Pass{
		Name:     "dominators",
		Consumes: []pipeline.Artifact{pipeline.ArtCFG},
		Produces: []pipeline.Artifact{pipeline.ArtDominators},
		Setup: func() error {
			dlist = make([]*dom.Tree, len((*folded).Funcs))
			return nil
		},
		Items: func() int { return len((*folded).Funcs) },
		RunItem: func(i int) error {
			dlist[i] = dom.Dominators((*graphs)[(*folded).Funcs[i].Name])
			return nil
		},
		After: func() error {
			*doms = make(map[string]*dom.Tree, len(dlist))
			for i, fn := range (*folded).Funcs {
				(*doms)[fn.Name] = dlist[i]
			}
			return nil
		},
	})
	m.Add(pipeline.Pass{
		Name:     "analysis-begin",
		Consumes: []pipeline.Artifact{pipeline.ArtFoldedAST, pipeline.ArtCFG, pipeline.ArtDominators},
		Produces: []pipeline.Artifact{pipeline.ArtCallGraph},
		Run: func() error {
			*an = core.Begin(*folded, core.Options{
				Initial: opts.Initial, RawPDF: opts.RawPDF,
				Graphs: *graphs, Doms: *doms, Runner: m.Pool(),
			})
			return nil
		},
	})
	m.Add(pipeline.Pass{
		Name:     "analysis-prepare",
		Consumes: []pipeline.Artifact{pipeline.ArtCFG, pipeline.ArtDominators, pipeline.ArtCallGraph},
		Produces: []pipeline.Artifact{pipeline.ArtPWords},
		Items:    func() int { return (*an).NumFuncs() },
		RunItem:  func(i int) error { (*an).PrepareFunc(i); return nil },
	})
	m.Add(pipeline.Pass{
		Name:     "taint",
		Consumes: []pipeline.Artifact{pipeline.ArtFoldedAST},
		Produces: []pipeline.Artifact{pipeline.ArtTaint},
		Run:      func() error { (*an).ComputeTaint(); return nil },
	})
	m.Add(pipeline.Pass{
		Name:     "contexts",
		Consumes: []pipeline.Artifact{pipeline.ArtPWords, pipeline.ArtCallGraph},
		Produces: []pipeline.Artifact{pipeline.ArtContexts},
		Run:      func() error { (*an).ComputeContexts(); return nil },
	})
	m.Add(pipeline.Pass{
		Name:     "summaries",
		Consumes: []pipeline.Artifact{pipeline.ArtPWords, pipeline.ArtContexts, pipeline.ArtCallGraph},
		Produces: []pipeline.Artifact{pipeline.ArtSummary},
		Waves:    func() [][]int { return (*an).SummaryWaves() },
		RunItem:  func(i int) error { (*an).ComputeSummarySCC(i); return nil },
	})
	m.Add(pipeline.Pass{
		Name: "check",
		Consumes: []pipeline.Artifact{
			pipeline.ArtPWords, pipeline.ArtTaint, pipeline.ArtContexts, pipeline.ArtSummary,
		},
		Items:   func() int { return (*an).NumFuncs() },
		RunItem: func(i int) error { (*an).CheckFunc(i); return nil },
	})
	m.Add(pipeline.Pass{
		Name:     "analysis-finish",
		Consumes: []pipeline.Artifact{pipeline.ArtSummary},
		Produces: []pipeline.Artifact{pipeline.ArtAnalysis},
		Run:      func() error { p.Analysis = (*an).Finish(); return nil },
	})
}

// addInstrumentPass registers verification-code generation: every
// function of the folded tree is cloned, flagged functions are rewritten
// with runtime checks and get fresh CFGs — all fanned per function. When
// the analysis found nothing the pass degenerates to zero items and the
// folded tree ships unchanged.
func addInstrumentPass(m *pipeline.Manager, p *Program,
	folded **ast.Program, graphs *map[string]*cfg.Graph, final **ast.Program) {

	var inst *ast.Program
	var newGraphs []*cfg.Graph
	m.Add(pipeline.Pass{
		Name:     "instrument",
		Consumes: []pipeline.Artifact{pipeline.ArtFoldedAST, pipeline.ArtAnalysis},
		Produces: []pipeline.Artifact{pipeline.ArtInstrumented},
		Setup: func() error {
			if p.Analysis == nil || !p.Analysis.NeedsInstrumentation() {
				inst = nil
				return nil
			}
			inst = &ast.Program{
				File:    (*folded).File,
				Regions: (*folded).Regions,
				Funcs:   make([]*ast.FuncDecl, len((*folded).Funcs)),
				ByName:  make(map[string]*ast.FuncDecl, len((*folded).Funcs)),
			}
			newGraphs = make([]*cfg.Graph, len((*folded).Funcs))
			return nil
		},
		Items: func() int {
			if inst == nil {
				return 0
			}
			return len((*folded).Funcs)
		},
		RunItem: func(i int) error {
			fn := ast.CloneFunc((*folded).Funcs[i])
			inst.Funcs[i] = fn
			if fa := p.Analysis.Funcs[fn.Name]; fa != nil && fa.NeedsInstrumentation {
				instrument.Func(fn, fa, p.Analysis)
				newGraphs[i] = cfg.Build(fn)
			}
			return nil
		},
		After: func() error {
			if inst == nil {
				return nil
			}
			for i, fn := range inst.Funcs {
				inst.ByName[fn.Name] = fn
				if newGraphs[i] != nil {
					(*graphs)[fn.Name] = newGraphs[i]
				}
			}
			p.Instrumented = inst
			p.Stats.Checks = instrument.Count(inst)
			*final = inst
			return nil
		},
	})
}

// Diagnostics returns the analysis warnings (empty in ModeBaseline),
// sorted into a canonical order independent of the worker count.
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
	// RunDeadlock: the monitor's deadlock oracle fired.
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

// Campaign runs a coverage-guided exploration campaign: every corpus
// entry, mutant and reduction candidate compiles on the campaign's
// worker pool (ModeFull, so planted checks and the value oracle are
// armed), and all schedule execution fans out on the same pool.
func Campaign(opts CampaignOptions) (*CampaignReport, error) {
	pool := pipeline.NewPool(opts.Workers)
	compile := func(gp *mhgen.Program) (*campaign.Compiled, error) {
		p, err := compileQuarantined(gp.Name+".mh", gp.Source, Options{Mode: ModeFull}, pool)
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
	return campaign.Run(opts, compile, pool)
}

// compileQuarantined is compile with a panic in the pipeline caught and
// returned as a QuarantineError at "compile": a generated program that
// crashes the compiler fails that entry's compile, not the campaign.
func compileQuarantined(name, src string, opts Options, pool *pipeline.Pool) (p *Program, err error) {
	defer func() {
		if r := recover(); r != nil {
			p, err = nil, interp.NewQuarantineError("compile", r, debug.Stack())
		}
	}()
	return compile(name, src, opts, pool)
}
