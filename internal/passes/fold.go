// Package passes implements the baseline backend of the compilation
// pipeline: constant folding, constant-branch simplification and
// unreachable CFG-node elimination.
//
// The folded tree is what the analysis reads and instrumentation
// rewrites, and the post-DCE graphs are the compile's CFG artifacts.
// These passes are also the work the paper's Figure 1 overhead is
// measured against: the baseline compile is the frontend plus fold, CFG
// and DCE, as PARCOACH's overhead is measured against the rest of GCC's
// pipeline.
package passes

import (
	"parcoach/internal/ast"
	"parcoach/internal/token"
)

// FoldStats reports what folding did.
type FoldStats struct {
	ExprsFolded      int
	BranchesResolved int
	LoopsRemoved     int
}

// FoldProgram returns a constant-folded deep copy of prog along with
// statistics. The input program is never modified.
func FoldProgram(prog *ast.Program) (*ast.Program, FoldStats) {
	clone := ast.CloneProgram(prog)
	f := &folder{}
	for _, fn := range clone.Funcs {
		f.foldBlock(fn.Body)
	}
	return clone, f.stats
}

type folder struct {
	stats FoldStats
}

func (f *folder) foldBlock(b *ast.Block) {
	if b == nil {
		return
	}
	var out []ast.Stmt
	for _, s := range b.Stmts {
		if kept := f.foldStmt(s); kept != nil {
			out = append(out, kept...)
		}
	}
	b.Stmts = out
}

// foldStmt folds inside s and returns its replacement statements (nil to
// drop the statement entirely).
func (f *folder) foldStmt(s ast.Stmt) []ast.Stmt {
	switch s := s.(type) {
	case *ast.Block:
		f.foldBlock(s)
		return []ast.Stmt{s}
	case *ast.VarDecl:
		s.ArraySize = f.foldExpr(s.ArraySize)
		s.Init = f.foldExpr(s.Init)
	case *ast.Assign:
		s.Value = f.foldExpr(s.Value)
		f.foldLValue(s.Target)
	case *ast.CallStmt:
		f.foldExprInPlace(&s.Call.Args)
	case *ast.If:
		s.Cond = f.foldExpr(s.Cond)
		f.foldBlock(s.Then)
		if s.Else != nil {
			switch repl := f.foldStmt(s.Else); len(repl) {
			case 0:
				s.Else = nil
			case 1:
				s.Else = repl[0]
			default:
				s.Else = &ast.Block{Lbrace: s.Else.Pos(), Stmts: repl}
			}
		}
		if v, ok := constValue(s.Cond); ok {
			f.stats.BranchesResolved++
			if v != 0 {
				return []ast.Stmt{s.Then}
			}
			if s.Else != nil {
				return []ast.Stmt{s.Else}
			}
			return nil
		}
	case *ast.For:
		s.From = f.foldExpr(s.From)
		s.To = f.foldExpr(s.To)
		f.foldBlock(s.Body)
		if from, okF := constValue(s.From); okF {
			if to, okT := constValue(s.To); okT && from >= to {
				f.stats.LoopsRemoved++
				return nil
			}
		}
	case *ast.While:
		s.Cond = f.foldExpr(s.Cond)
		f.foldBlock(s.Body)
		if v, ok := constValue(s.Cond); ok && v == 0 {
			f.stats.LoopsRemoved++
			return nil
		}
	case *ast.Return:
		s.Value = f.foldExpr(s.Value)
	case *ast.Print:
		f.foldExprInPlace(&s.Args)
	case *ast.MPIStmt:
		s.Src = f.foldExpr(s.Src)
		s.Root = f.foldExpr(s.Root)
		s.Dest = f.foldExpr(s.Dest)
		s.Tag = f.foldExpr(s.Tag)
		if s.Dst != nil {
			f.foldLValue(s.Dst)
		}
	case *ast.ParallelStmt:
		s.NumThreads = f.foldExpr(s.NumThreads)
		f.foldBlock(s.Body)
	case *ast.SingleStmt:
		f.foldBlock(s.Body)
	case *ast.MasterStmt:
		f.foldBlock(s.Body)
	case *ast.CriticalStmt:
		f.foldBlock(s.Body)
	case *ast.AtomicStmt:
		s.Value = f.foldExpr(s.Value)
		f.foldLValue(s.Target)
	case *ast.PforStmt:
		s.From = f.foldExpr(s.From)
		s.To = f.foldExpr(s.To)
		f.foldBlock(s.Body)
	case *ast.SectionsStmt:
		for _, b := range s.Bodies {
			f.foldBlock(b)
		}
	}
	return []ast.Stmt{s}
}

func (f *folder) foldLValue(lv ast.LValue) {
	if idx, ok := lv.(*ast.IndexExpr); ok {
		idx.Index = f.foldExpr(idx.Index)
	}
}

func (f *folder) foldExprInPlace(es *[]ast.Expr) {
	for i, e := range *es {
		(*es)[i] = f.foldExpr(e)
	}
}

// constValue extracts a compile-time constant (bools as 0/1).
func constValue(e ast.Expr) (int64, bool) {
	switch e := e.(type) {
	case *ast.IntLit:
		return e.Value, true
	case *ast.BoolLit:
		if e.Value {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// foldExpr rewrites e bottom-up, folding constant subtrees. Nil maps to nil.
func (f *folder) foldExpr(e ast.Expr) ast.Expr {
	switch e := e.(type) {
	case nil:
		return nil
	case *ast.UnaryExpr:
		e.X = f.foldExpr(e.X)
		if v, ok := constValue(e.X); ok {
			f.stats.ExprsFolded++
			if e.Op == token.Not {
				return &ast.BoolLit{LitPos: e.OpPos, Value: v == 0}
			}
			return &ast.IntLit{LitPos: e.OpPos, Value: -v}
		}
		return e
	case *ast.BinaryExpr:
		e.X = f.foldExpr(e.X)
		e.Y = f.foldExpr(e.Y)
		x, okX := constValue(e.X)
		y, okY := constValue(e.Y)
		if !okX || !okY {
			return e
		}
		folded, ok := foldBinary(e.Op, x, y)
		if !ok {
			return e // division by zero: leave for runtime diagnosis
		}
		f.stats.ExprsFolded++
		switch e.Op {
		case token.Eq, token.NotEq, token.Lt, token.LtEq, token.Gt, token.GtEq,
			token.AndAnd, token.OrOr:
			return &ast.BoolLit{LitPos: e.OpPos, Value: folded != 0}
		}
		return &ast.IntLit{LitPos: e.OpPos, Value: folded}
	case *ast.IndexExpr:
		e.Index = f.foldExpr(e.Index)
		return e
	case *ast.CallExpr:
		f.foldExprInPlace(&e.Args)
		// Pure intrinsics over constants fold too.
		switch e.Name {
		case "abs":
			if len(e.Args) == 1 {
				if v, ok := constValue(e.Args[0]); ok {
					f.stats.ExprsFolded++
					if v < 0 {
						v = -v
					}
					return &ast.IntLit{LitPos: e.NamePos, Value: v}
				}
			}
		case "min", "max":
			if len(e.Args) == 2 {
				a, okA := constValue(e.Args[0])
				b, okB := constValue(e.Args[1])
				if okA && okB {
					f.stats.ExprsFolded++
					if (e.Name == "min") == (a < b) {
						return &ast.IntLit{LitPos: e.NamePos, Value: a}
					}
					return &ast.IntLit{LitPos: e.NamePos, Value: b}
				}
			}
		}
		return e
	default:
		return e
	}
}

func foldBinary(op token.Kind, x, y int64) (int64, bool) {
	b := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}
	switch op {
	case token.Plus:
		return x + y, true
	case token.Minus:
		return x - y, true
	case token.Star:
		return x * y, true
	case token.Slash:
		if y == 0 {
			return 0, false
		}
		return x / y, true
	case token.Percent:
		if y == 0 {
			return 0, false
		}
		return x % y, true
	case token.Eq:
		return b(x == y), true
	case token.NotEq:
		return b(x != y), true
	case token.Lt:
		return b(x < y), true
	case token.LtEq:
		return b(x <= y), true
	case token.Gt:
		return b(x > y), true
	case token.GtEq:
		return b(x >= y), true
	case token.AndAnd:
		return b(x != 0 && y != 0), true
	case token.OrOr:
		return b(x != 0 || y != 0), true
	}
	return 0, false
}
