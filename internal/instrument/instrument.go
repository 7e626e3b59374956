// Package instrument implements the paper's static instrumentation for
// execution-time verification. It transforms a deep copy of the analysed
// program, inserting runtime checks only where the compile-time phases
// left doubt (selective instrumentation, the source of the paper's low
// overhead):
//
//   - In functions flagged by phase 3, the check function CC is inserted
//     before each MPI collective operation, before each statement calling a
//     collective-bearing function, and before return statements / at the
//     function end (the paper wraps the return check in a single construct;
//     here the verifier runs it with execute-once team semantics).
//   - Collectives in the phase-1 set S get a per-barrier-phase execution
//     counter (InstrPhaseCount), which clears false positives when the
//     region actually runs with one thread; their dominating parallel
//     entries in Sipw are marked with InstrMonoCheck.
//   - Monothreaded regions in the phase-2 set Scc are bracketed with
//     InstrConcNote, and the collectives of each concurrent pair are
//     phase-counted as well. The markers check nothing at run time; the
//     phase counts do.
package instrument

import (
	"parcoach/internal/ast"
	"parcoach/internal/cfg"
	"parcoach/internal/core"
	"parcoach/internal/source"
)

// Program returns an instrumented deep copy of prog. Functions without
// findings are copied verbatim. The analysis result must come from the
// same program value.
func Program(prog *ast.Program, res *core.Result) *ast.Program {
	clone := ast.CloneProgram(prog)
	for _, f := range clone.Funcs {
		fa := res.Funcs[f.Name]
		if fa == nil || !fa.NeedsInstrumentation {
			continue
		}
		newInserter(fa, res).rewriteBlock(f.Body)
		if fa.NeedsCC {
			// Check at function end for processes that fall off the end
			// while others still expect collectives.
			if n := len(f.Body.Stmts); n == 0 || !isReturn(f.Body.Stmts[n-1]) {
				f.Body.Stmts = append(f.Body.Stmts, &ast.InstrCCReturn{At: f.NamePos})
			}
		}
	}
	return clone
}

// Stats summarizes what was inserted; the benchmark harness reports it.
type Stats struct {
	CCChecks     int
	ReturnChecks int
	PhaseCounts  int
	MonoChecks   int
	ConcNotes    int
}

// Count tallies instrumentation statements in a (transformed) program.
func Count(prog *ast.Program) Stats {
	var st Stats
	ast.Inspect(prog, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.InstrCC:
			st.CCChecks++
		case *ast.InstrCCReturn:
			st.ReturnChecks++
		case *ast.InstrPhaseCount:
			st.PhaseCounts++
		case *ast.InstrMonoCheck:
			st.MonoChecks++
		case *ast.InstrConcNote:
			st.ConcNotes++
		}
		return true
	})
	return st
}

type inserter struct {
	fa  *core.FuncAnalysis
	res *core.Result

	// phaseCount maps a statement position to the CFG node id whose
	// execution must be counted per barrier phase.
	phaseCount map[source.Pos]int
	// monoRegions are parallel-region ids needing a team-size probe.
	monoRegions map[int]bool
	// concRegions are single/master/section region ids in Scc.
	concRegions map[int]bool
	// needCC mirrors fa.NeedsCC.
	needCC bool
	// ctx tracks the lexical threading constructs around the rewrite
	// position: true entries are constructs every team thread executes
	// (parallel, pfor, critical), false entries are single-threaded bodies
	// (single, master, section).
	ctx []bool
}

// onceNow reports whether a check inserted here is reached by every thread
// of a team and therefore needs execute-once semantics.
func (ins *inserter) onceNow() bool {
	if len(ins.ctx) == 0 {
		return ins.fa.Multithreaded
	}
	return ins.ctx[len(ins.ctx)-1]
}

func (ins *inserter) pushCtx(multi bool) { ins.ctx = append(ins.ctx, multi) }
func (ins *inserter) popCtx()            { ins.ctx = ins.ctx[:len(ins.ctx)-1] }

func newInserter(fa *core.FuncAnalysis, res *core.Result) *inserter {
	ins := &inserter{
		fa:          fa,
		res:         res,
		phaseCount:  make(map[source.Pos]int),
		monoRegions: make(map[int]bool),
		concRegions: make(map[int]bool),
		needCC:      fa.NeedsCC,
	}
	for _, n := range fa.MultithreadedColls {
		ins.notePhaseCount(n)
	}
	for _, pair := range fa.ConcPairs {
		ins.notePhaseCount(pair.A)
		ins.notePhaseCount(pair.B)
	}
	for _, n := range fa.Sipw {
		if n.Kind == cfg.KindParallelBegin {
			ins.monoRegions[n.RegionID] = true
		}
	}
	for _, n := range fa.Scc {
		ins.concRegions[n.RegionID] = true
	}
	return ins
}

// notePhaseCount registers the first statement of a flagged node. Branch
// nodes (calls inside conditions) have no statement slot to prepend to and
// are covered by the CC checks instead.
func (ins *inserter) notePhaseCount(n *cfg.Node) {
	if len(n.Stmts) == 0 {
		return
	}
	ins.phaseCount[n.Stmts[0].Pos()] = n.ID
}

func isReturn(s ast.Stmt) bool {
	_, ok := s.(*ast.Return)
	return ok
}

// collectiveCallees returns the collective-bearing functions invoked from
// the statement's own expressions (not nested blocks).
func (ins *inserter) collectiveCallees(s ast.Stmt) []string {
	var exprs []ast.Expr
	switch s := s.(type) {
	case *ast.VarDecl:
		exprs = []ast.Expr{s.ArraySize, s.Init}
	case *ast.Assign:
		exprs = []ast.Expr{s.Target, s.Value}
	case *ast.CallStmt:
		exprs = []ast.Expr{s.Call}
	case *ast.If:
		exprs = []ast.Expr{s.Cond}
	case *ast.While:
		exprs = []ast.Expr{s.Cond}
	case *ast.For:
		exprs = []ast.Expr{s.From, s.To}
	case *ast.Print:
		exprs = s.Args
	case *ast.MPIStmt:
		exprs = []ast.Expr{s.Dst, s.Src, s.Root, s.Dest, s.Tag}
	case *ast.AtomicStmt:
		exprs = []ast.Expr{s.Target, s.Value}
	case *ast.PforStmt:
		exprs = []ast.Expr{s.From, s.To}
	case *ast.ParallelStmt:
		exprs = []ast.Expr{s.NumThreads}
	}
	var out []string
	seen := make(map[string]bool)
	for _, e := range exprs {
		if e == nil {
			continue
		}
		for _, name := range ast.Calls(e) {
			if seen[name] {
				continue
			}
			seen[name] = true
			if sum, ok := ins.res.Summaries[name]; ok && sum.HasCollective() {
				out = append(out, name)
			}
		}
	}
	return out
}

// rewriteBlock rewrites a block in place, prepending checks to flagged
// statements and recursing into nested constructs.
func (ins *inserter) rewriteBlock(b *ast.Block) {
	if b == nil {
		return
	}
	var out []ast.Stmt
	for _, s := range b.Stmts {
		out = append(out, ins.checksFor(s)...)
		ins.rewriteNested(s)
		out = append(out, s)
	}
	b.Stmts = out
}

// checksFor returns the instrumentation statements to insert immediately
// before s, in order: phase count, then CC.
func (ins *inserter) checksFor(s ast.Stmt) []ast.Stmt {
	var checks []ast.Stmt
	pos := s.Pos()
	if nodeID, ok := ins.phaseCount[pos]; ok {
		kind := ast.MPIBarrier
		if m, isMPI := s.(*ast.MPIStmt); isMPI {
			kind = m.Kind
		}
		checks = append(checks, &ast.InstrPhaseCount{At: pos, NodeID: nodeID, CollKind: kind})
	}
	if ins.needCC {
		once := ins.onceNow()
		switch st := s.(type) {
		case *ast.MPIStmt:
			// MPI_Finalize is collective over the world too: checking it
			// catches processes finalizing while peers still expect
			// collectives.
			if st.Kind.IsCollective() || st.Kind == ast.MPIFinalize {
				checks = append(checks, &ast.InstrCC{At: pos, CollKind: st.Kind, CollPos: pos, Once: once})
			}
		case *ast.Return:
			checks = append(checks, &ast.InstrCCReturn{At: pos, Once: once})
		}
		for _, callee := range ins.collectiveCallees(s) {
			checks = append(checks, &ast.InstrCC{At: pos, Callee: callee, CollPos: pos, Once: once})
		}
	}
	return checks
}

// rewriteNested recurses into compound statements, adding region-level
// instrumentation where the analysis flagged the region.
func (ins *inserter) rewriteNested(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.If:
		ins.rewriteBlock(s.Then)
		if s.Else != nil {
			switch e := s.Else.(type) {
			case *ast.Block:
				ins.rewriteBlock(e)
			case *ast.If:
				ins.rewriteNested(e)
			}
		}
	case *ast.For:
		ins.rewriteBlock(s.Body)
	case *ast.While:
		ins.rewriteBlock(s.Body)
	case *ast.CriticalStmt:
		ins.pushCtx(true)
		ins.rewriteBlock(s.Body)
		ins.popCtx()
	case *ast.ParallelStmt:
		ins.pushCtx(true)
		ins.rewriteBlock(s.Body)
		ins.popCtx()
		if ins.monoRegions[s.RegionID] {
			s.Body.Stmts = append([]ast.Stmt{
				&ast.InstrMonoCheck{At: s.ParPos, RegionID: s.RegionID},
			}, s.Body.Stmts...)
		}
	case *ast.SingleStmt:
		ins.pushCtx(false)
		ins.rewriteBlock(s.Body)
		ins.popCtx()
		if ins.concRegions[s.RegionID] {
			ins.bracket(s.Body, s.SingPos, s.RegionID)
		}
	case *ast.MasterStmt:
		ins.pushCtx(false)
		ins.rewriteBlock(s.Body)
		ins.popCtx()
		if ins.concRegions[s.RegionID] {
			ins.bracket(s.Body, s.MastPos, s.RegionID)
		}
	case *ast.PforStmt:
		ins.pushCtx(true)
		ins.rewriteBlock(s.Body)
		ins.popCtx()
	case *ast.SectionsStmt:
		for i, body := range s.Bodies {
			ins.pushCtx(false)
			ins.rewriteBlock(body)
			ins.popCtx()
			if ins.concRegions[s.SectionIDs[i]] {
				ins.bracket(body, body.Lbrace, s.SectionIDs[i])
			}
		}
	}
}

// bracket wraps a region body in InstrConcNote enter/exit markers.
func (ins *inserter) bracket(b *ast.Block, pos source.Pos, regionID int) {
	stmts := make([]ast.Stmt, 0, len(b.Stmts)+2)
	stmts = append(stmts, &ast.InstrConcNote{At: pos, RegionID: regionID, Enter: true})
	stmts = append(stmts, b.Stmts...)
	stmts = append(stmts, &ast.InstrConcNote{At: pos, RegionID: regionID, Enter: false})
	b.Stmts = stmts
}
