package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"parcoach/internal/parser"
)

func TestSCCsOrderAndGrouping(t *testing.T) {
	// main -> a -> b <-> c, a -> d, d -> d (self loop).
	adj := map[string][]string{
		"main": {"a"},
		"a":    {"b", "d"},
		"b":    {"c"},
		"c":    {"b"},
		"d":    {"d"},
	}
	order := []string{"main", "a", "b", "c", "d"}
	comps := SCCs(adj, order)
	pos := make(map[string]int)
	for i, c := range comps {
		sort.Strings(c)
		pos[c[0]] = i
	}
	if len(comps) != 4 {
		t.Fatalf("want 4 components, got %v", comps)
	}
	// Callees before callers.
	if !(pos["b"] < pos["a"] && pos["d"] < pos["a"] && pos["a"] < pos["main"]) {
		t.Errorf("components not in reverse topological order: %v", comps)
	}
	for _, c := range comps {
		if c[0] == "b" && !reflect.DeepEqual(c, []string{"b", "c"}) {
			t.Errorf("b and c must form one SCC: %v", c)
		}
	}
}

func TestSCCsIgnoresUnknownVertices(t *testing.T) {
	adj := map[string][]string{"f": {"rank", "g"}, "g": nil}
	comps := SCCs(adj, []string{"f", "g"})
	if len(comps) != 2 {
		t.Fatalf("want 2 components, got %v", comps)
	}
}

func TestSCCsDeterministic(t *testing.T) {
	adj := map[string][]string{}
	var order []string
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("f%02d", i)
		order = append(order, name)
		if i > 0 {
			adj[name] = []string{fmt.Sprintf("f%02d", i-1)}
		} else {
			adj[name] = nil
		}
	}
	first := SCCs(adj, order)
	for rep := 0; rep < 10; rep++ {
		if !reflect.DeepEqual(SCCs(adj, order), first) {
			t.Fatal("SCC order varies between runs")
		}
	}
}

// TestStagedAnalysisSCCOrder sanity-checks the condensation the
// summaries stage walks: every function may only call functions of
// earlier SCCs or of its own, so a callee's summary is final before any
// caller's SCC is summarized.
func TestStagedAnalysisSCCOrder(t *testing.T) {
	src := `
func leaf() { MPI_Barrier() }
func mid() { leaf() }
func recur(n) { if n > 0 { recur(n - 1) } mid() return 0 }
func main() { MPI_Init() recur(3) MPI_Finalize() }
`
	prog, err := parser.Parse("scc.mh", src)
	if err != nil {
		t.Fatal(err)
	}
	an := Begin(prog, Options{})
	seen := make(map[string]bool)
	for _, comp := range an.sccs {
		own := make(map[string]bool, len(comp))
		for _, name := range comp {
			own[name] = true
		}
		for _, name := range comp {
			for _, n := range an.graphs[name].Nodes {
				for _, callee := range n.Calls {
					if _, ok := an.index[callee]; !ok {
						continue
					}
					if !seen[callee] && !own[callee] {
						t.Errorf("SCC order broken: %s calls %s before its summary is final", name, callee)
					}
				}
			}
		}
		for name := range own {
			seen[name] = true
		}
	}
	an.Prepare()
	an.ComputeTaint()
	an.ComputeContexts()
	an.ComputeSummaries()
	an.Check()
	res := an.Finish()
	if !res.Summaries["main"].HasCollective() {
		t.Error("main must transitively summarize collectives through recur → mid → leaf")
	}
	if len(res.Summaries["recur"].Kinds) == 0 {
		t.Error("recursive function summary missing callee collectives")
	}
}
