package main

import (
	"fmt"
	"slices"
	"time"

	"parcoach"
	"parcoach/internal/mhgen"
	"parcoach/internal/workload"
)

// The compile workload: ModeFull compiles through one long-lived
// parcoach.Compiler of width 1 (see closed for why not 2). The sequence
// interleaves the paper's Figure 1 set at ScaleB with generated
// programs, five to compileBlock. Nothing runs, so only the compile
// layers work here.
const (
	compileBlock = 64
	// compileDraw generated programs per seed, FromSeed(N·compileDraw…):
	// per-program compile cost spreads over 0.5–6 ms, and with fewer
	// programs the median moves with the draw more than a regression
	// bound allows.
	compileDraw = 1024
)

// fig1Kinds is the static verdict of every Figure 1 program: the
// designed, statically unprovable collective guards draw
// collective-mismatch warnings and nothing else (the expectation
// internal/workload's tests pin).
var fig1Kinds = []string{"collective-mismatch"}

// staticBug reports whether a planted class has a static signature, so
// that its compile must warn.
func staticBug(b workload.Bug) bool {
	switch b {
	case workload.BugMultithreadedCollective, workload.BugConcurrentSingles,
		workload.BugSectionsCollectives, workload.BugRankDependentCollective,
		workload.BugEarlyReturn, workload.BugMismatchedKinds:
		return true
	}
	return false
}

// compileItem is one source in the compile sequence with its expected
// static verdict.
type compileItem struct {
	name, src string
	fig1      bool
	bug       workload.Bug
}

// checkCompile compares a compile against the item's ground truth.
func checkCompile(it compileItem, p *parcoach.Program, err error) error {
	switch {
	case err != nil:
		return fmt.Errorf("compile %s: %v", it.name, err)
	case it.fig1 && !slices.Equal(p.WarningKinds(), fig1Kinds):
		return fmt.Errorf("compile %s: warning kinds %v, want %v", it.name, p.WarningKinds(), fig1Kinds)
	case staticBug(it.bug) && len(p.Warnings()) == 0:
		return fmt.Errorf("compile %s: planted %s drew no warning", it.name, it.bug)
	}
	return nil
}

func compileSequence(c config, tr *tracer) []compileItem {
	scale, draw := workload.ScaleB, compileDraw
	if c.smoke {
		scale, draw = workload.ScaleS, compileBlock
	}
	t0 := time.Now()
	gps := make([]*mhgen.Program, draw)
	for i := range gps {
		gps[i] = mhgen.FromSeed(c.seed*compileDraw + uint64(i))
	}
	tr.add("mhgen.generate", "mhgen", -1, -1, t0, time.Now())
	fig1 := workload.Figure1Set(scale)
	var seq []compileItem
	for b := 0; b < draw; b += compileBlock {
		for _, w := range fig1 {
			seq = append(seq, compileItem{name: w.Name + ".mh", src: w.Source, fig1: true})
		}
		for _, gp := range gps[b : b+compileBlock] {
			seq = append(seq, compileItem{name: gp.Name + ".mh", src: gp.Source, bug: gp.Bug})
		}
	}
	return seq
}

func setupCompile(c config, r *Run, tr *tracer) (bench, error) {
	seq := compileSequence(c, tr)
	comp := parcoach.NewCompiler(1)
	opts := parcoach.Options{Mode: parcoach.ModeFull}
	compile := func(i int, it compileItem, tr *tracer) error {
		t0 := time.Now()
		p, err := comp.Compile(it.name, it.src, opts)
		if err == nil {
			tr.addCompile(i, t0, time.Now(), p)
		}
		return checkCompile(it, p, err)
	}
	// Warm-up: the first Figure 1 pass and generated block, once each.
	for _, it := range seq[:min(len(seq), 5+compileBlock)] {
		r.check(compile(-1, it, tr))
	}
	r.Params["compiler_workers"] = 1
	r.Params["mode"] = "full"
	r.Params["figure1_scale"] = map[bool]string{false: "B", true: "S"}[c.smoke]
	r.Params["mhgen_first_seed"] = c.seed * compileDraw
	r.Params["mhgen_programs"] = len(seq) / (5 + compileBlock) * compileBlock
	r.Params["sequence"] = fmt.Sprintf("Figure 1 set then %d generated programs, repeated", compileBlock)
	return &closed{passLen: len(seq), op: func(i int, tr *tracer) (int, error) {
		return 1, compile(i, seq[i%len(seq)], tr)
	}}, nil
}
