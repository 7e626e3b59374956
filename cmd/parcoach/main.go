// Command parcoach is the static-analysis front end: it compiles one or
// more MiniHybrid source files, prints the compile-time verification
// warnings (with collective names and source lines, as the paper
// requires), and can dump the per-function analysis summary, the
// post-DCE CFG and the instrumented source. Multiple files compile
// concurrently, -workers of them at once (the CompileBatch API); each
// file's compile is serial.
//
// Usage:
//
//	parcoach [flags] file.mh [file2.mh ...]
//
//	-initial multithreaded   assume main may start inside a parallel region
//	-raw-pdf                 disable the rank-dependence refinement (ablation)
//	-mode baseline|analyze|full
//	-workers N               files compiled at once (0 = all cores)
//	-dot func                write the function's CFG in Graphviz DOT to stdout
//	-dump-instrumented       print the instrumented program
//	-summary                 print per-function analysis summary
//	-timings                 print per-pass pipeline timings
package main

import (
	"flag"
	"fmt"
	"os"

	"parcoach"
	"parcoach/internal/ast"
)

func main() {
	initial := flag.String("initial", "monothreaded", "initial context: monothreaded or multithreaded")
	rawPDF := flag.Bool("raw-pdf", false, "disable the rank-dependence refinement of phase 3")
	mode := flag.String("mode", "full", "compilation mode: baseline, analyze or full")
	workers := flag.Int("workers", 0, "files compiled at once (0 = all cores, 1 = one at a time)")
	dotFunc := flag.String("dot", "", "dump the CFG of the named function as DOT")
	dumpInst := flag.Bool("dump-instrumented", false, "print the instrumented program")
	summary := flag.Bool("summary", false, "print per-function analysis summary")
	timings := flag.Bool("timings", false, "print per-pass pipeline timings")
	flag.Parse()

	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: parcoach [flags] file.mh [file2.mh ...]")
		flag.Usage()
		os.Exit(2)
	}

	opts := parcoach.Options{Mode: parcoach.ModeFull, RawPDF: *rawPDF, Workers: *workers}
	switch *mode {
	case "baseline":
		opts.Mode = parcoach.ModeBaseline
	case "analyze":
		opts.Mode = parcoach.ModeAnalyze
	case "full":
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
	switch *initial {
	case "monothreaded":
	case "multithreaded":
		opts.Initial = parcoach.ContextMultithreaded
	default:
		fatal(fmt.Errorf("unknown initial context %q", *initial))
	}

	files := make([]parcoach.File, flag.NArg())
	for i, name := range flag.Args() {
		src, err := os.ReadFile(name)
		if err != nil {
			fatal(err)
		}
		files[i] = parcoach.File{Name: name, Source: string(src)}
	}

	progs, err := parcoach.CompileBatch(files, opts)
	// A failing file must not discard the other programs' reports: print
	// what compiled, then the per-file errors, then exit 2 (compile
	// errors outrank the warnings exit code 1).
	anyWarnings := false
	dumped := false
	for _, prog := range progs {
		if prog == nil {
			continue
		}
		dumped = report(prog, len(progs) > 1, *summary, *timings, *dotFunc, *dumpInst) || dumped
		if len(prog.Warnings()) > 0 {
			anyWarnings = true
		}
	}
	if err != nil {
		fatal(err)
	}
	// A -dot function name that matched no input at all is a usage
	// error in multi-file mode too, same as the single-file exit 2.
	if *dotFunc != "" && !dumped {
		fatal(fmt.Errorf("no function %q in any input", *dotFunc))
	}
	if anyWarnings {
		os.Exit(1)
	}
}

// report prints one program's results; it returns whether a -dot dump
// matched this program.
func report(prog *parcoach.Program, multi, summary, timings bool, dotFunc string, dumpInst bool) bool {
	if multi {
		fmt.Printf("== %s ==\n", prog.Name)
	}
	for _, d := range prog.Diagnostics() {
		fmt.Println(d)
	}

	if summary && prog.Analysis != nil {
		fmt.Printf("\nfunctions: %d, statements: %d, cfg nodes: %d, required level: %s\n",
			prog.Stats.Functions, prog.Stats.Statements, prog.Stats.CFGNodes, prog.Analysis.RequiredLevel)
		for _, f := range prog.Source.Funcs {
			fa := prog.Analysis.Funcs[f.Name]
			if fa == nil {
				continue
			}
			fmt.Printf("  %-24s multithreaded-entry=%-5v S=%d Sipw=%d Scc=%d cc=%v\n",
				f.Name, fa.Multithreaded, len(fa.MultithreadedColls), len(fa.Sipw), len(fa.Scc), fa.NeedsCC)
		}
		fmt.Printf("instrumentation: %+v\n", prog.Stats.Checks)
	}

	if timings {
		fmt.Println()
		for _, pt := range prog.Timing.Passes {
			fmt.Printf("  %-18s %v\n", pt.Name, pt.Duration)
		}
		fmt.Printf("  %-18s %v\n", "total", prog.Timing.Total)
	}

	dumped := false
	if dotFunc != "" {
		// The backend's cached graph (post-DCE, instrumented when codegen
		// rewrote the function); no ad-hoc rebuild. In a batch, programs
		// that simply lack the function are skipped with a note; main
		// exits 2 if no input had it.
		if g, ok := prog.Graphs[dotFunc]; ok {
			g.WriteDot(os.Stdout)
			dumped = true
		} else if multi {
			fmt.Fprintf(os.Stderr, "parcoach: %s: no function %q\n", prog.Name, dotFunc)
		}
	}

	if dumpInst {
		if prog.Instrumented == nil {
			fmt.Println("// no instrumentation required")
		} else {
			ast.Fprint(os.Stdout, prog.Instrumented)
		}
	}
	return dumped
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "parcoach:", err)
	os.Exit(2)
}
