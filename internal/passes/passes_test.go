package passes

import (
	"strings"
	"testing"
	"testing/quick"

	"parcoach/internal/ast"
	"parcoach/internal/cfg"
	"parcoach/internal/interp"
	"parcoach/internal/parser"
)

func parse(t *testing.T, src string) *ast.Program {
	t.Helper()
	prog, err := parser.Parse("t.mh", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return prog
}

func foldMain(t *testing.T, body string) (*ast.Program, FoldStats) {
	t.Helper()
	return FoldProgram(parse(t, "func main() {\n"+body+"\n}"))
}

func TestFoldArithmetic(t *testing.T) {
	folded, st := foldMain(t, "var x = 2 + 3 * 4\nvar y = (10 - 4) / 3\nvar z = 17 % 5")
	text := ast.String(folded)
	for _, want := range []string{"x = 14", "y = 2", "z = 2"} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in folded output:\n%s", want, text)
		}
	}
	if st.ExprsFolded < 4 {
		t.Errorf("ExprsFolded = %d", st.ExprsFolded)
	}
}

func TestFoldComparisonsAndLogic(t *testing.T) {
	folded, _ := foldMain(t, "var a = 3 < 4 && 5 >= 5\nvar b = !(1 == 2)\nvar c = false || 7 > 9")
	text := ast.String(folded)
	if !strings.Contains(text, "a = true") || !strings.Contains(text, "b = true") || !strings.Contains(text, "c = false") {
		t.Errorf("logic folding wrong:\n%s", text)
	}
}

func TestFoldIntrinsics(t *testing.T) {
	folded, _ := foldMain(t, "var a = abs(0 - 9)\nvar b = min(3, 8)\nvar c = max(3, 8)")
	text := ast.String(folded)
	if !strings.Contains(text, "a = 9") || !strings.Contains(text, "b = 3") || !strings.Contains(text, "c = 8") {
		t.Errorf("intrinsic folding wrong:\n%s", text)
	}
}

func TestFoldConstantBranch(t *testing.T) {
	folded, st := foldMain(t, `
var x = 0
if 1 < 2 {
	x = 1
} else {
	x = 2
}
if 1 > 2 {
	x = 3
}`)
	text := ast.String(folded)
	if !strings.Contains(text, "x = 1") || strings.Contains(text, "x = 2") || strings.Contains(text, "x = 3") {
		t.Errorf("branch resolution wrong:\n%s", text)
	}
	if st.BranchesResolved != 2 {
		t.Errorf("BranchesResolved = %d, want 2", st.BranchesResolved)
	}
}

func TestFoldElseIfChain(t *testing.T) {
	folded, _ := foldMain(t, `
var x = 0
if x > 0 {
	x = 1
} else if 2 > 1 {
	x = 2
} else {
	x = 3
}`)
	text := ast.String(folded)
	// The inner constant else-if must collapse to its then-block.
	if strings.Contains(text, "x = 3") {
		t.Errorf("dead else retained:\n%s", text)
	}
}

func TestFoldDeadLoops(t *testing.T) {
	folded, st := foldMain(t, `
var x = 0
while false {
	x = 1
}
for i = 5 .. 3 {
	x = 2
}`)
	text := ast.String(folded)
	if strings.Contains(text, "x = 1") || strings.Contains(text, "x = 2") {
		t.Errorf("dead loops retained:\n%s", text)
	}
	if st.LoopsRemoved != 2 {
		t.Errorf("LoopsRemoved = %d, want 2", st.LoopsRemoved)
	}
}

func TestFoldKeepsDivisionByZero(t *testing.T) {
	folded, _ := foldMain(t, "var x = 1 / 0\nvar y = 1 % 0")
	text := ast.String(folded)
	if !strings.Contains(text, "1 / 0") || !strings.Contains(text, "1 % 0") {
		t.Errorf("division by zero must be left for runtime diagnosis:\n%s", text)
	}
}

func TestFoldDoesNotTouchOriginal(t *testing.T) {
	prog := parse(t, "func main() { var x = 1 + 2 }")
	before := ast.String(prog)
	FoldProgram(prog)
	if ast.String(prog) != before {
		t.Error("FoldProgram mutated its input")
	}
}

func TestFoldInsideConstructs(t *testing.T) {
	folded, _ := foldMain(t, `
parallel num_threads(2 + 2) {
	single {
		var a = 1 + 1
	}
	pfor i = 0 .. 2 * 8 {
		atomic a += 3 * 3
	}
	sections {
		section { var b = 5 - 5 }
	}
	critical {
		var c = 2 * 2
	}
	master {
		var d = 6 / 2
	}
}
MPI_Bcast(x, 1 + 1)`)
	text := ast.String(folded)
	for _, want := range []string{"num_threads(4)", "a = 2", "0 .. 16", "+= 9", "b = 0", "c = 4", "d = 3", "MPI_Bcast(x, 2)"} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q:\n%s", want, text)
		}
	}
}

// Property: folding preserves program behaviour on single-process runs.
func TestFoldPreservesSemantics(t *testing.T) {
	gen := func(seed int64) string {
		rng := seed
		next := func(n int64) int64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			v := (rng >> 33) % n
			if v < 0 {
				v = -v
			}
			return v
		}
		lit := func() string {
			return []string{"1", "2", "3", "7", "0"}[next(5)]
		}
		var expr func(d int) string
		expr = func(d int) string {
			if d > 2 {
				return lit()
			}
			switch next(5) {
			case 0:
				return lit()
			case 1:
				return "(" + expr(d+1) + " + " + expr(d+1) + ")"
			case 2:
				return "(" + expr(d+1) + " * " + expr(d+1) + ")"
			case 3:
				return "min(" + expr(d+1) + ", " + expr(d+1) + ")"
			default:
				return "(" + expr(d+1) + " - " + expr(d+1) + ")"
			}
		}
		var b strings.Builder
		b.WriteString("func main() {\nvar acc = 0\n")
		for i := 0; i < 6; i++ {
			b.WriteString("acc += " + expr(0) + "\n")
			if next(2) == 0 {
				b.WriteString("if " + expr(0) + " > " + lit() + " { acc += 1 } else { acc -= 1 }\n")
			}
		}
		b.WriteString("print(acc)\n}")
		return b.String()
	}
	check := func(seed int64) bool {
		src := gen(seed)
		prog, err := parser.Parse("p.mh", src)
		if err != nil {
			return false
		}
		folded, _ := FoldProgram(prog)
		r1 := interp.Run(prog, interp.Options{Procs: 1})
		r2 := interp.Run(folded, interp.Options{Procs: 1})
		return r1.Err == nil && r2.Err == nil && r1.Output == r2.Output
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

//
// Dead-node elimination
//

func TestEliminateDeadAfterReturn(t *testing.T) {
	prog := parse(t, "func main() {\nreturn\nMPI_Barrier()\n}")
	g := cfg.Build(prog.Func("main"))
	before := len(g.Nodes)
	removed := EliminateDead(g)
	if removed == 0 {
		t.Fatal("dead collective not removed")
	}
	if len(g.Nodes) != before-removed {
		t.Error("node count inconsistent")
	}
	for i, n := range g.Nodes {
		if n.ID != i {
			t.Fatal("ids not renumbered densely")
		}
	}
	for _, n := range g.Nodes {
		if n.Kind == cfg.KindCollective {
			t.Error("dead collective survived")
		}
		for _, s := range n.Succs {
			if s.ID >= len(g.Nodes) {
				t.Error("dangling successor")
			}
		}
	}
}

func TestEliminateDeadNoop(t *testing.T) {
	prog := parse(t, "func main() { var x = 1\nif x > 0 { x = 2 } }")
	g := cfg.Build(prog.Func("main"))
	if removed := EliminateDead(g); removed != 0 {
		t.Errorf("live graph lost %d nodes", removed)
	}
}
