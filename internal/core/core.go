// Package core implements the paper's compile-time verification: the
// decomposition into three phases that together prove a hybrid program
// executes the same, totally ordered sequence of MPI collectives on every
// process.
//
//  1. Every collective executes in a monothreaded context — checked by
//     membership of its parallelism word in L = (S|PB*S)* (internal/pword).
//     Violating nodes form the set S (MultithreadedColls) and their
//     dominating region entries form Sipw, both instrumented for dynamic
//     confirmation.
//  2. Any two collective executions are ordered sequentially — collectives
//     in concurrent monothreaded regions (words w·S_j·u / w·S_k·v, j≠k)
//     form concurrent pairs, and the region entries form Scc, instrumented
//     with dynamic thread counters.
//  3. All processes execute the same sequence — PARCOACH Algorithm 1: for
//     each collective kind c, every conditional in the iterated
//     postdominance frontier PDF+(O_c) of the nodes calling c is a
//     divergence point and gets a warning plus CC instrumentation.
//
// The analysis is interprocedural through per-function summaries: a call
// to a function that (transitively) performs collectives is treated like a
// collective node in its caller, and the multithreading context propagates
// along the call graph.
//
// The analysis runs in stages, so the compiler can time each one as a
// pass of its own: Begin sets up the call-graph condensation, Prepare
// computes the per-function artifacts (dominators, parallelism words,
// postdominance frontiers), ComputeTaint/ComputeContexts/ComputeSummaries
// run the interprocedural fixpoints over the condensation (summaries
// callees first, contexts callers first), Check runs the three
// verification phases function by function, and Finish assembles the
// sorted Result. Analyze drives all stages in order. Every stage is
// serial.
package core

import (
	"fmt"
	"sort"

	"parcoach/internal/ast"
	"parcoach/internal/cfg"
	"parcoach/internal/dom"
	"parcoach/internal/mpi"
	"parcoach/internal/pword"
	"parcoach/internal/source"
)

// Context is the assumed threading context at program start (the paper's
// compile-time option for the initial thread level: the initial
// parallelism word of a function is an unknown prefix).
type Context int

// Initial contexts.
const (
	// ContextMonothreaded assumes main starts outside any parallel region.
	ContextMonothreaded Context = iota
	// ContextMultithreaded assumes main may already run inside a parallel
	// region (unknown prefix P).
	ContextMultithreaded
)

// entryFunc is the root of the call-graph context propagation.
// Functions unreachable from it are analysed in the context their own
// callers imply, or monothreaded if uncalled.
const entryFunc = "main"

// Options configures the analysis.
type Options struct {
	// Initial is the context assumed for main (default monothreaded).
	Initial Context
	// RawPDF disables the rank-dependence refinement of phase 3 and
	// reports every conditional in PDF+(O_c), including process-invariant
	// ones (ablation mode; more warnings, more instrumentation).
	RawPDF bool
	// Graphs supplies pre-built CFGs keyed by function name. The compiler
	// passes the backend's graphs here so the analysis rides on the
	// compiler's existing CFG, as PARCOACH does inside GCC; when nil the
	// analysis builds its own.
	Graphs map[string]*cfg.Graph
	// Doms supplies pre-built dominator trees keyed by function name
	// (the compiler's dominators stage); missing entries are computed
	// on demand during Prepare.
	Doms map[string]*dom.Tree
}

// Summary is the interprocedural collective signature of one function.
type Summary struct {
	// Kinds are the collective kinds the function may (transitively)
	// execute, in sorted order.
	Kinds []ast.MPIKind
	// Exposed are the kinds that may execute in a multithreaded context
	// when the function itself is entered multithreaded (i.e. collectives
	// not protected by a single/master region inside the function or its
	// callees).
	Exposed []ast.MPIKind
}

// HasCollective reports whether the function performs any collective.
func (s Summary) HasCollective() bool { return len(s.Kinds) > 0 }

// ConcPair is a phase-2 finding: two collective-bearing nodes that may
// execute simultaneously in concurrent monothreaded regions.
type ConcPair struct {
	A, B    *cfg.Node
	RegionA int
	RegionB int
}

// FuncAnalysis holds the per-function results.
type FuncAnalysis struct {
	Name  string
	Graph *cfg.Graph
	// Words are the parallelism words in the context the function is
	// actually analysed under (multithreaded if any caller may call it
	// from a multithreaded context).
	Words *pword.Result
	// Multithreaded is true when the function was analysed with the
	// unknown multithreaded prefix.
	Multithreaded bool

	// MultithreadedColls is the paper's set S for phase 1.
	MultithreadedColls []*cfg.Node
	// Sipw holds the nodes dominating the phase-1 findings where the
	// threading context is established (region begins, or entry).
	Sipw []*cfg.Node
	// ConcPairs are the phase-2 findings.
	ConcPairs []ConcPair
	// Scc holds the region-begin nodes of concurrent monothreaded regions.
	Scc []*cfg.Node
	// SeqWarn maps a collective name to the divergence conditionals of
	// phase 3 (PDF+ of its call sites).
	SeqWarn map[string][]*cfg.Node
	// NeedsCC is true when phase 3 found divergence points, so CC checks
	// must be generated for this function.
	NeedsCC bool
	// NeedsInstrumentation is true when any phase produced findings.
	NeedsInstrumentation bool
}

// Result is the whole-program analysis output.
type Result struct {
	Prog      *ast.Program
	Graphs    map[string]*cfg.Graph
	Summaries map[string]Summary
	Funcs     map[string]*FuncAnalysis
	Diags     []Diagnostic
	// RequiredLevel is the minimum MPI thread level the program needs.
	RequiredLevel mpi.ThreadLevel
}

// Errors returns the diagnostics that denote potential errors.
func (r *Result) Errors() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diags {
		if d.Kind.IsError() {
			out = append(out, d)
		}
	}
	return out
}

// NeedsInstrumentation reports whether any function requires verification
// code generation.
func (r *Result) NeedsInstrumentation() bool {
	for _, f := range r.Funcs {
		if f.NeedsInstrumentation {
			return true
		}
	}
	return false
}

// Analyze runs the full compile-time verification on a parsed and
// semantically valid program, driving every stage in order.
func Analyze(prog *ast.Program, opts Options) *Result {
	an := Begin(prog, opts)
	an.Prepare()
	an.ComputeTaint()
	an.ComputeContexts()
	an.ComputeSummaries()
	an.Check()
	return an.Finish()
}

// Analysis is the staged analyzer. Stages must run in order: Prepare,
// ComputeTaint, ComputeContexts, ComputeSummaries, Check, Finish.
type Analysis struct {
	prog   *ast.Program
	opts   Options
	graphs map[string]*cfg.Graph
	res    *Result

	// funcs/index give every function a dense id; the per-function
	// artifact caches below are slices indexed by it.
	funcs []*ast.FuncDecl
	index map[string]int

	// multiCtx[f] is true when f may be entered in a multithreaded context.
	multiCtx map[string]bool
	// words caches the per-function parallelism words, always computed
	// from the monothreaded entry word: the unknown-prefix variant is
	// derived per query via MonoUnderParallelPrefix, since the prefix
	// region can never be closed inside the function.
	words []*pword.Result
	// taints holds the interprocedural rank-taint sets.
	taints map[string]*rankTaint
	// pdfs caches per-function postdominance frontiers — one per function
	// regardless of context. (Dominator trees are consumed inside
	// Prepare by the parallelism-word computation and not retained.)
	pdfs []map[*cfg.Node][]*cfg.Node

	// kinds/exposed are the summary fixpoint state; summaries holds the
	// finished per-function summaries.
	kinds     []map[ast.MPIKind]bool
	exposed   []map[ast.MPIKind]bool
	summaries []Summary

	// fas holds the per-function check results until Finish builds the
	// Result maps.
	fas []*FuncAnalysis

	// sccs is the call-graph condensation in reverse topological order
	// (callees first).
	sccs [][]string
}

// Begin sets up the analysis: defaults, CFGs (built here when not
// supplied), and the call-graph condensation that orders the
// interprocedural stages.
func Begin(prog *ast.Program, opts Options) *Analysis {
	n := len(prog.Funcs)
	a := &Analysis{
		prog:  prog,
		opts:  opts,
		funcs: prog.Funcs,
		index: make(map[string]int, n),
		res: &Result{
			Prog:      prog,
			Summaries: make(map[string]Summary, n),
			Funcs:     make(map[string]*FuncAnalysis, n),
		},
		multiCtx:  make(map[string]bool, n),
		words:     make([]*pword.Result, n),
		pdfs:      make([]map[*cfg.Node][]*cfg.Node, n),
		kinds:     make([]map[ast.MPIKind]bool, n),
		exposed:   make([]map[ast.MPIKind]bool, n),
		summaries: make([]Summary, n),
		fas:       make([]*FuncAnalysis, n),
	}
	for i, f := range prog.Funcs {
		a.index[f.Name] = i
		a.kinds[i] = make(map[ast.MPIKind]bool)
		a.exposed[i] = make(map[ast.MPIKind]bool)
	}
	a.graphs = opts.Graphs
	if a.graphs == nil {
		a.graphs = make(map[string]*cfg.Graph, n)
		for _, f := range prog.Funcs {
			a.graphs[f.Name] = cfg.Build(f)
		}
	}
	a.res.Graphs = a.graphs

	// Condense the call graph. Edges go caller→callee, so the reverse
	// topological SCC order yields callees before callers.
	adj := make(map[string][]string, n)
	order := make([]string, 0, n)
	for _, f := range prog.Funcs {
		order = append(order, f.Name)
		var callees []string
		for _, node := range a.graphs[f.Name].Nodes {
			callees = append(callees, node.Calls...)
		}
		adj[f.Name] = callees
	}
	a.sccs = SCCs(adj, order)
	return a
}

// Prepare computes every function's artifacts: dominator tree,
// parallelism words and postdominance frontier.
func (a *Analysis) Prepare() {
	for i, f := range a.funcs {
		g := a.graphs[f.Name]
		t := a.opts.Doms[f.Name]
		if t == nil {
			t = dom.Dominators(g)
		}
		a.words[i] = pword.ComputeWithDom(g, pword.Empty, t)
		a.pdfs[i] = dom.PostDominanceFrontier(g)
	}
}

// ComputeTaint runs the interprocedural rank-taint fixpoint (phase 3's
// divergence refinement reads it).
func (a *Analysis) ComputeTaint() { a.taints = computeProgramTaint(a.prog) }

func (a *Analysis) pdfFor(name string) map[*cfg.Node][]*cfg.Node {
	return a.pdfs[a.index[name]]
}

// taintFor returns the function's rank-taint set. ComputeTaint must have
// run.
func (a *Analysis) taintFor(name string) *rankTaint {
	if t, ok := a.taints[name]; ok {
		return t
	}
	return &rankTaint{vars: map[string]bool{}}
}

func (a *Analysis) wordsOf(name string) *pword.Result {
	return a.words[a.index[name]]
}

func (a *Analysis) summaryOf(name string) (Summary, bool) {
	i, ok := a.index[name]
	if !ok {
		return Summary{}, false
	}
	return a.summaries[i], true
}

// monoAt is the phase-1 test for a node under the function's entry
// context: plain L-membership when entered monothreaded, membership of
// P·w when the entry context is (possibly) multithreaded.
func monoAt(words *pword.Result, n *cfg.Node, multi bool) bool {
	if words.IsAmbiguous(n) {
		return false
	}
	w := words.Word(n)
	if multi {
		return w.MonoUnderParallelPrefix()
	}
	return w.Monothreaded()
}

// displayWord renders a node's word including the unknown prefix.
func displayWord(w pword.Word, multi bool) string {
	if multi {
		return "P? " + w.String()
	}
	return w.String()
}

// ComputeContexts propagates the threading context along the call graph:
// a callee is multithreaded-entered if any call site sits at a
// non-monothreaded word in a caller (given the caller's own context).
// Context flows caller→callee, so one walk of the condensation in forward
// topological order (callers first) suffices, with a local fixpoint
// inside each SCC for recursion.
func (a *Analysis) ComputeContexts() {
	if a.opts.Initial == ContextMultithreaded {
		a.multiCtx[entryFunc] = true
	}
	// propagate marks name's callees and reports whether it marked a
	// member of the current component (which then needs re-iteration).
	propagate := func(name string, inComp map[string]bool) bool {
		g := a.graphs[name]
		words := a.wordsOf(name)
		markedInComp := false
		for _, n := range g.Nodes {
			if len(n.Calls) == 0 {
				continue
			}
			calleeMulti := !monoAt(words, n, a.multiCtx[name])
			if !calleeMulti {
				continue
			}
			for _, callee := range n.Calls {
				if _, ok := a.graphs[callee]; ok && !a.multiCtx[callee] {
					a.multiCtx[callee] = true
					if inComp[callee] {
						markedInComp = true
					}
				}
			}
		}
		return markedInComp
	}
	// a.sccs is callees-first; walk it backwards for callers-first. A
	// component re-iterates until its own members' contexts are stable
	// (recursion, including self-loops); marks on functions outside the
	// component land in later components and need no re-iteration here.
	for i := len(a.sccs) - 1; i >= 0; i-- {
		comp := a.sccs[i]
		inComp := make(map[string]bool, len(comp))
		for _, name := range comp {
			inComp[name] = true
		}
		for changed := true; changed; {
			changed = false
			for _, name := range comp {
				if propagate(name, inComp) {
					changed = true
				}
			}
		}
	}
}

// ComputeSummaries runs the interprocedural fixpoint for collective
// signatures (Kinds and Exposed) over the call-graph condensation,
// callees first, so the summaries of every function an SCC calls are
// final before the SCC is summarized.
func (a *Analysis) ComputeSummaries() {
	for _, comp := range a.sccs {
		a.summarize(comp)
	}
}

// summarize computes the collective summaries of the functions of one
// SCC, with a local fixpoint for recursion.
func (a *Analysis) summarize(comp []string) {
	for changed := true; changed; {
		changed = false
		for _, name := range comp {
			fi := a.index[name]
			g := a.graphs[name]
			// Exposure is judged with the pessimistic multithreaded prefix:
			// "would a collective run multithreaded if this function were
			// entered inside a parallel region".
			words := a.wordsOf(name)
			for _, n := range g.Nodes {
				unsafe := !monoAt(words, n, true)
				if n.Kind == cfg.KindCollective {
					k := n.Coll.Kind
					if !a.kinds[fi][k] {
						a.kinds[fi][k] = true
						changed = true
					}
					if unsafe && !a.exposed[fi][k] {
						a.exposed[fi][k] = true
						changed = true
					}
					continue
				}
				for _, callee := range n.Calls {
					ci, ok := a.index[callee]
					if !ok {
						continue
					}
					for k := range a.kinds[ci] {
						if !a.kinds[fi][k] {
							a.kinds[fi][k] = true
							changed = true
						}
					}
					// If the call site is unsafe, everything the callee can
					// expose when entered multithreaded is exposed here too.
					if unsafe {
						for k := range a.exposed[ci] {
							if !a.exposed[fi][k] {
								a.exposed[fi][k] = true
								changed = true
							}
						}
					}
				}
			}
		}
	}
	for _, name := range comp {
		fi := a.index[name]
		a.summaries[fi] = Summary{
			Kinds:   sortedKinds(a.kinds[fi]),
			Exposed: sortedKinds(a.exposed[fi]),
		}
	}
}

func sortedKinds(set map[ast.MPIKind]bool) []ast.MPIKind {
	out := make([]ast.MPIKind, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// collNodes returns the nodes of g that perform collectives, directly or
// through calls: for call nodes the relevant kinds come from the callee
// summary. The exposedOnly flag restricts call contributions to exposed
// kinds (used by phase 1, where an internally-protected callee is safe).
func (a *Analysis) collNodes(g *cfg.Graph, exposedOnly bool) map[*cfg.Node][]ast.MPIKind {
	out := make(map[*cfg.Node][]ast.MPIKind)
	for _, n := range g.Nodes {
		if n.Kind == cfg.KindCollective {
			out[n] = []ast.MPIKind{n.Coll.Kind}
			continue
		}
		var ks []ast.MPIKind
		for _, callee := range n.Calls {
			sum, ok := a.summaryOf(callee)
			if !ok {
				continue
			}
			if exposedOnly {
				ks = append(ks, sum.Exposed...)
			} else {
				ks = append(ks, sum.Kinds...)
			}
		}
		if len(ks) > 0 {
			out[n] = ks
		}
	}
	return out
}

// Check runs the three verification phases for every function, in
// declaration order. All interprocedural stages must be finished.
func (a *Analysis) Check() {
	for i, f := range a.funcs {
		a.fas[i] = a.check(f)
	}
}

// check runs phases 1–3 for f.
func (a *Analysis) check(f *ast.FuncDecl) *FuncAnalysis {
	g := a.graphs[f.Name]
	multi := a.multiCtx[f.Name]
	words := a.wordsOf(f.Name)
	fa := &FuncAnalysis{
		Name:          f.Name,
		Graph:         g,
		Words:         words,
		Multithreaded: multi,
		SeqWarn:       make(map[string][]*cfg.Node),
	}

	// Report word conflicts (non-conforming barrier placement) once per node.
	for _, c := range words.Conflicts {
		a.diag(Diagnostic{
			Kind: DiagAmbiguousWord,
			Pos:  c.Pos,
			Func: f.Name,
			Message: fmt.Sprintf(
				"parallelism word differs between paths (%s vs %s); barrier or region placement depends on control flow",
				c.A, c.B),
		})
	}

	a.phase1(f, fa)
	a.phase2(f, fa)
	a.phase3(f, fa)
	fa.NeedsInstrumentation = len(fa.MultithreadedColls) > 0 || len(fa.ConcPairs) > 0 || fa.NeedsCC
	return fa
}

func (a *Analysis) diag(d Diagnostic) { a.res.Diags = append(a.res.Diags, d) }

// Finish assembles the Result: per-function results and summaries keyed
// by name, and the diagnostics plus the thread-level note in canonical
// order.
func (a *Analysis) Finish() *Result {
	for i, f := range a.funcs {
		a.res.Summaries[f.Name] = a.summaries[i]
		if fa := a.fas[i]; fa != nil {
			a.res.Funcs[f.Name] = fa
		}
	}
	a.res.RequiredLevel = a.requiredLevel()
	a.res.Diags = append(a.res.Diags, Diagnostic{
		Kind:    DiagThreadLevel,
		Pos:     a.prog.Pos(),
		Func:    entryFunc,
		Message: fmt.Sprintf("program requires at least %s", a.res.RequiredLevel),
	})
	SortDiagnostics(a.res.Diags)
	return a.res
}

// phase1 checks that every collective (or exposed callee collective) sits
// at a monothreaded parallelism word.
func (a *Analysis) phase1(f *ast.FuncDecl, fa *FuncAnalysis) {
	colls := a.collNodes(fa.Graph, true)
	ids := sortedNodeKeys(colls)
	for _, n := range ids {
		if monoAt(fa.Words, n, fa.Multithreaded) {
			continue
		}
		w := fa.Words.Word(n)
		fa.MultithreadedColls = append(fa.MultithreadedColls, n)
		dominator := a.contextNode(fa.Graph, w, fa.Multithreaded)
		if dominator != nil {
			fa.Sipw = appendUnique(fa.Sipw, dominator)
		}
		for _, name := range nodeCollNames(n, colls[n]) {
			d := Diagnostic{
				Kind:       DiagMultithreadedCollective,
				Pos:        n.Pos,
				Func:       f.Name,
				Collective: name,
				Message: fmt.Sprintf(
					"%s may be executed by multiple threads of an MPI process (parallelism word %s, initial context %s); requires %s and at most one executing thread",
					name, displayWord(w, fa.Multithreaded), contextName(fa.Multithreaded), mpi.ThreadMultiple),
			}
			if dominator != nil && dominator.Pos.IsValid() {
				d.Related = append(d.Related, dominator.Pos)
			}
			a.diag(d)
		}
	}
}

// contextNode locates the Sipw node for a multithreaded word: the begin
// node of the innermost open parallel region, or the entry node when the
// multithreading comes from the unknown initial prefix.
func (a *Analysis) contextNode(g *cfg.Graph, w pword.Word, multi bool) *cfg.Node {
	for i := w.Len() - 1; i >= 0; i-- {
		l := w.At(i)
		if l.Kind == pword.P {
			for _, n := range g.Nodes {
				if n.Kind == cfg.KindParallelBegin && n.RegionID == l.ID {
					return n
				}
			}
		}
	}
	// No open parallel region in the function itself: the threading comes
	// from the caller's (unknown) context.
	_ = multi
	return g.Entry
}

// phase2 finds pairs of collectives in concurrent monothreaded regions.
func (a *Analysis) phase2(f *ast.FuncDecl, fa *FuncAnalysis) {
	colls := a.collNodes(fa.Graph, false)
	nodes := sortedNodeKeys(colls)
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			n1, n2 := nodes[i], nodes[j]
			w1, w2 := fa.Words.Word(n1), fa.Words.Word(n2)
			if !monoAt(fa.Words, n1, fa.Multithreaded) || !monoAt(fa.Words, n2, fa.Multithreaded) {
				continue // phase 1 already covers multithreaded nodes
			}
			if !pword.Concurrent(w1, w2) {
				continue
			}
			ra, rb := divergingRegions(w1, w2)
			pair := ConcPair{A: n1, B: n2, RegionA: ra, RegionB: rb}
			fa.ConcPairs = append(fa.ConcPairs, pair)
			for _, rid := range []int{ra, rb} {
				if begin := regionBegin(fa.Graph, rid); begin != nil {
					fa.Scc = appendUnique(fa.Scc, begin)
				}
			}
			a.diag(Diagnostic{
				Kind:       DiagConcurrentCollectives,
				Pos:        n1.Pos,
				Func:       f.Name,
				Collective: nodeCollNames(n1, colls[n1])[0],
				Message: fmt.Sprintf(
					"%s and %s are in concurrent monothreaded regions (words %s / %s) and may execute simultaneously",
					nodeCollNames(n1, colls[n1])[0], nodeCollNames(n2, colls[n2])[0], w1, w2),
				Related: []source.Pos{n2.Pos},
			})
		}
	}
}

// divergingRegions returns the region ids of the first differing S letters.
func divergingRegions(w1, w2 pword.Word) (int, int) {
	i := 0
	for i < w1.Len() && i < w2.Len() {
		a, b := w1.At(i), w2.At(i)
		if a.Kind != b.Kind || (a.Kind != pword.B && a.ID != b.ID) {
			break
		}
		i++
	}
	return w1.At(i).ID, w2.At(i).ID
}

func regionBegin(g *cfg.Graph, id int) *cfg.Node {
	for _, n := range g.Nodes {
		if n.IsRegionBegin() && n.RegionID == id {
			return n
		}
	}
	return nil
}

// phase3 is PARCOACH Algorithm 1: for each collective kind, warn at every
// conditional in the iterated postdominance frontier of its call sites.
func (a *Analysis) phase3(f *ast.FuncDecl, fa *FuncAnalysis) {
	g := fa.Graph
	pdf := a.pdfFor(f.Name)
	colls := a.collNodes(g, false)
	taint := a.taintFor(f.Name)
	// Group nodes by collective name so warnings carry the MPI_* name.
	byName := make(map[string][]*cfg.Node)
	for n, ks := range colls {
		for _, name := range nodeCollNames(n, ks) {
			byName[name] = appendUnique(byName[name], n)
		}
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		set := byName[name]
		sort.Slice(set, func(i, j int) bool { return set[i].ID < set[j].ID })
		divergers := filterDivergers(dom.Iterated(pdf, set), taint, a.opts.RawPDF)
		if len(divergers) == 0 {
			continue
		}
		fa.SeqWarn[name] = divergers
		fa.NeedsCC = true
		for _, d := range divergers {
			var rel []source.Pos
			for _, n := range set {
				rel = append(rel, n.Pos)
			}
			a.diag(Diagnostic{
				Kind:       DiagCollectiveMismatch,
				Pos:        d.Pos,
				Func:       f.Name,
				Collective: name,
				Message: fmt.Sprintf(
					"control-flow divergence here decides whether/how often %s executes; processes taking different branches will not call the same collective sequence",
					name),
				Related: rel,
			})
		}
	}
}

// filterDivergers keeps the PDF+ members that can actually desynchronize
// processes. Construct-begin nodes with skip edges (single, master,
// sections) execute their bodies a deterministic number of times per
// process and are never inter-process divergence points. Branch nodes and
// worksharing loop headers diverge only when their controlling expressions
// are rank-dependent — unless raw mode keeps the unrefined set.
func filterDivergers(nodes []*cfg.Node, taint *rankTaint, raw bool) []*cfg.Node {
	var out []*cfg.Node
	for _, n := range nodes {
		switch n.Kind {
		case cfg.KindBranch:
			if raw || taint.exprTainted(n.Cond) {
				out = append(out, n)
			}
		case cfg.KindPforBegin:
			if raw {
				out = append(out, n)
				continue
			}
			if len(n.Stmts) == 1 {
				if pf, ok := n.Stmts[0].(*ast.PforStmt); ok {
					if taint.exprTainted(pf.From) || taint.exprTainted(pf.To) {
						out = append(out, n)
					}
				}
			}
		}
	}
	return out
}

// requiredLevel derives the minimum MPI thread level over all collectives.
func (a *Analysis) requiredLevel() mpi.ThreadLevel {
	level := mpi.ThreadSingle
	hasParallel := false
	for _, f := range a.prog.Funcs {
		g := a.graphs[f.Name]
		words := a.wordsOf(f.Name)
		for _, n := range g.Nodes {
			if n.Kind == cfg.KindParallelBegin {
				hasParallel = true
			}
			if n.Kind != cfg.KindCollective {
				continue
			}
			w := words.Word(n)
			var need mpi.ThreadLevel
			switch {
			case !monoAt(words, n, a.multiCtx[f.Name]):
				need = mpi.ThreadMultiple
			default:
				if s, ok := w.InnermostS(); ok {
					if s.Master {
						need = mpi.ThreadFunneled
					} else {
						need = mpi.ThreadSerialized
					}
				} else if w.Len() == 0 {
					need = mpi.ThreadSingle
				} else {
					// Word like "B…" at top level: still the initial thread.
					need = mpi.ThreadSingle
				}
			}
			if need > level {
				level = need
			}
		}
	}
	if level == mpi.ThreadSingle && hasParallel {
		level = mpi.ThreadFunneled
	}
	return level
}

func nodeCollNames(n *cfg.Node, ks []ast.MPIKind) []string {
	if n.Kind == cfg.KindCollective {
		return []string{n.Coll.Kind.String()}
	}
	// A call node: attribute to the call site.
	seen := make(map[string]bool)
	var out []string
	for _, callee := range n.Calls {
		name := "call:" + callee
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	if len(out) == 0 {
		out = []string{"collective"}
	}
	return out
}

func appendUnique(list []*cfg.Node, n *cfg.Node) []*cfg.Node {
	for _, m := range list {
		if m == n {
			return list
		}
	}
	return append(list, n)
}

func sortedNodeKeys(m map[*cfg.Node][]ast.MPIKind) []*cfg.Node {
	out := make([]*cfg.Node, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func contextName(multi bool) string {
	if multi {
		return "multithreaded"
	}
	return "monothreaded"
}
