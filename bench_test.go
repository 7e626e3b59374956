// Benchmarks regenerating the paper's evaluation under testing.B:
//
//   - BenchmarkCompile/*            — Figure 1 inputs: compile time of each
//     benchmark in baseline / warnings / warnings+codegen mode; the
//     overhead percentages derive from the mode ratios.
//   - BenchmarkAnalysisOnly/*       — the three verification phases alone.
//   - BenchmarkRuntime/*            — the runtime-overhead experiment:
//     uninstrumented vs selectively instrumented vs fully instrumented
//     (raw PDF+) execution of the correct benchmarks.
//   - BenchmarkDetection/*          — time to a verified abort on the
//     seeded micro error corpus (the "stops as soon as unavoidable" claim).
//   - BenchmarkAblationTaint        — the interprocedural rank-dependence
//     refinement's cost (analysis with and without the filter).
package parcoach_test

import (
	"testing"

	"parcoach"
	"parcoach/internal/core"
	"parcoach/internal/explore"
	"parcoach/internal/interp"
	"parcoach/internal/mhgen"
	"parcoach/internal/omp"
	"parcoach/internal/parser"
	"parcoach/internal/workload"
)

// benchSet holds the Figure 1 benchmarks at the paper-like scale B for
// compile measurements and at scale S for execution measurements (runtime
// benches execute the full program per iteration).
var (
	compileSet = workload.Figure1Set(workload.ScaleB)
	runtimeSet = workload.Figure1Set(workload.ScaleS)
)

// BenchmarkCompileBatch pins the batch-compile speedup: the same
// multi-program, many-functions-per-program workload compiled on a
// serial pool (workers-01, the reference) and on widening pools. The
// bench trajectory tracks the ratio; diagnostics and stats are
// byte-identical across widths (TestCompileBatchMatchesSerial).
func BenchmarkCompileBatch(b *testing.B) {
	var files []parcoach.File
	for _, w := range workload.Figure1Set(workload.ScaleA) {
		files = append(files, parcoach.File{Name: w.Name, Source: w.Source})
	}
	for _, w := range workload.Figure1Set(workload.ScaleB) {
		files = append(files, parcoach.File{Name: "b-" + w.Name, Source: w.Source})
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := parcoach.CompileBatch(files, parcoach.Options{
					Mode: parcoach.ModeFull, Workers: workers,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMhgenCompile puts generator-shaped inputs on the perf
// trajectory: batches of seeded random programs (internal/mhgen) at
// small and medium scale through CompileBatch in full mode. Generated
// programs stress different paths than the structured Figure 1 set —
// mutual-recursion SCCs, deep construct nesting, planted-bug
// instrumentation — so a regression specific to those shapes shows here
// first. Generation happens outside the timed loop.
func BenchmarkMhgenCompile(b *testing.B) {
	for _, scale := range []struct {
		name string
		size mhgen.Size
		n    uint64
	}{
		{"small-32", mhgen.SizeSmall, 32},
		{"medium-16", mhgen.SizeMedium, 16},
	} {
		var files []parcoach.File
		for seed := uint64(0); seed < scale.n; seed++ {
			bug := workload.BugNone
			if seed%4 == 3 { // a quarter carry instrumentation-heavy bugs
				bug = workload.AllBugs[seed%uint64(len(workload.AllBugs))]
			}
			gp := mhgen.Generate(mhgen.Config{Seed: seed, Bug: bug, Size: scale.size})
			files = append(files, parcoach.File{Name: gp.Name, Source: gp.Source})
		}
		b.Run(scale.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := parcoach.CompileBatch(files, parcoach.Options{
					Mode: parcoach.ModeFull, Workers: 4,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCompile(b *testing.B) {
	modes := []struct {
		name string
		mode parcoach.Mode
	}{
		{"baseline", parcoach.ModeBaseline},
		{"warnings", parcoach.ModeAnalyze},
		{"full", parcoach.ModeFull},
	}
	for _, w := range compileSet {
		for _, m := range modes {
			b.Run(w.Name+"/"+m.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := parcoach.Compile(w.Name, w.Source, parcoach.Options{Mode: m.mode}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkAnalysisOnly(b *testing.B) {
	for _, w := range compileSet {
		prog, err := parser.Parse(w.Name, w.Source)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(w.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Analyze(prog, core.Options{})
			}
		})
	}
}

func BenchmarkRuntime(b *testing.B) {
	for _, w := range runtimeSet {
		sel, err := parcoach.Compile(w.Name, w.Source, parcoach.Options{Mode: parcoach.ModeFull})
		if err != nil {
			b.Fatal(err)
		}
		full, err := parcoach.Compile(w.Name, w.Source, parcoach.Options{Mode: parcoach.ModeFull, RawPDF: true})
		if err != nil {
			b.Fatal(err)
		}
		run := func(b *testing.B, p *parcoach.Program, instrumented bool) {
			for i := 0; i < b.N; i++ {
				var res *parcoach.RunResult
				if instrumented {
					res = p.Run(parcoach.RunOptions{Procs: 2, Threads: 2})
				} else {
					res = p.RunUninstrumented(parcoach.RunOptions{Procs: 2, Threads: 2})
				}
				if res.Err != nil {
					b.Fatal(res.Err)
				}
			}
		}
		b.Run(w.Name+"/plain", func(b *testing.B) { run(b, sel, false) })
		b.Run(w.Name+"/selective", func(b *testing.B) { run(b, sel, true) })
		b.Run(w.Name+"/full-instr", func(b *testing.B) { run(b, full, true) })
	}
}

func BenchmarkDetection(b *testing.B) {
	for _, bug := range workload.AllBugs {
		if bug == workload.BugTornBuffer {
			// Schedule-dependent: a free-running run only sometimes trips
			// the value oracle, so there is no deterministic time-to-abort
			// to measure here (the diff harness judges it by exploration).
			continue
		}
		w := workload.Micro(bug)
		p, err := parcoach.Compile(w.Name, w.Source, parcoach.Options{Mode: parcoach.ModeFull})
		if err != nil {
			b.Fatal(err)
		}
		procs := 2
		if bug == workload.BugConcurrentSingles || bug == workload.BugSectionsCollectives {
			procs = 1
		}
		b.Run(bug.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := p.Run(parcoach.RunOptions{Procs: procs, Threads: 2, Policy: omp.RoundRobin})
				if res.Err == nil {
					b.Fatal("seeded bug not detected")
				}
			}
		})
	}
}

func BenchmarkAblationTaint(b *testing.B) {
	w := workload.HERA(workload.ScaleB, workload.BugNone)
	prog, err := parser.Parse(w.Name, w.Source)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("refined", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.Analyze(prog, core.Options{})
		}
	})
	b.Run("raw-pdf", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.Analyze(prog, core.Options{RawPDF: true})
		}
	})
}

// BenchmarkInterpreter pins the simulated-runtime cost itself: a hybrid
// step loop at varying thread counts.
func BenchmarkInterpreter(b *testing.B) {
	src := `
func main() {
	MPI_Init()
	var x = rank()
	for step = 0 .. 10 {
		parallel {
			pfor i = 0 .. 64 {
				atomic x += 1
			}
			single {
				MPI_Allreduce(x, x, sum)
			}
		}
	}
	MPI_Finalize()
}`
	prog, err := parser.Parse("interp.mh", src)
	if err != nil {
		b.Fatal(err)
	}
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(benchName("threads", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := interp.Run(prog, interp.Options{Procs: 2, Threads: threads})
				if res.Err != nil {
					b.Fatal(res.Err)
				}
			}
		})
	}
}

func benchName(prefix string, n int) string {
	return prefix + "-" + string(rune('0'+n/10)) + string(rune('0'+n%10))
}

// BenchmarkExplore pins the schedule-exploration throughput
// (schedules/sec, via b.ReportMetric) across every strategy and worker
// width, on the property-suite racer and a generated concurrency-bug
// program. Sampling cells run 64 schedules; the DFS cell runs to
// exhaustion or 1024 schedules.
func BenchmarkExplore(b *testing.B) {
	gp := mhgen.Generate(mhgen.Config{Seed: 5, Bug: workload.BugConcurrentSingles})
	gen, err := parcoach.Compile(gp.Name+".mh", gp.Source, parcoach.Options{Mode: parcoach.ModeFull})
	if err != nil {
		b.Fatal(err)
	}
	racer, err := parcoach.Compile("racer.mh", explore.BenchRacerSrc, parcoach.Options{Mode: parcoach.ModeFull})
	if err != nil {
		b.Fatal(err)
	}
	progs := []struct {
		name           string
		prog           *parcoach.Program
		procs, threads int
	}{
		{"racer", racer, 2, 2},
		{gp.Name, gen, gp.Procs, gp.Threads},
	}
	grid := []struct {
		strategy  parcoach.ExploreStrategy
		schedules int
	}{
		{parcoach.ExploreRoundRobin, 1},
		{parcoach.ExploreRandom, 64},
		{parcoach.ExplorePCT, 64},
		{parcoach.ExploreDFS, 1024},
	}
	for _, pc := range progs {
		for _, tc := range grid {
			for _, workers := range []int{1, 4, 8} {
				b.Run(pc.name+"/"+tc.strategy.String()+"/"+benchName("workers", workers), func(b *testing.B) {
					total := 0
					for i := 0; i < b.N; i++ {
						rep := pc.prog.Explore(parcoach.ExploreOptions{
							Strategy:  tc.strategy,
							Schedules: tc.schedules,
							Workers:   workers,
							Procs:     pc.procs,
							Threads:   pc.threads,
							MaxSteps:  2_000_000,
						})
						if rep.Schedules == 0 {
							b.Fatal("exploration ran no schedules")
						}
						total += rep.Schedules
					}
					b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "schedules/s")
				})
			}
		}
	}
}

// BenchmarkExploreDPORReduction pins the metric DPOR exists for:
// schedules-to-exhaustion on the reference racer. Raw schedules/sec
// undersells DPOR (each run pays trace recording and race analysis);
// what matters is that exhausting the space takes few runs.
func BenchmarkExploreDPORReduction(b *testing.B) {
	racer, err := parcoach.Compile("racer.mh", explore.BenchRacerSrc, parcoach.Options{Mode: parcoach.ModeFull})
	if err != nil {
		b.Fatal(err)
	}
	var schedules int
	for i := 0; i < b.N; i++ {
		rep := racer.Explore(parcoach.ExploreOptions{
			Strategy:  parcoach.ExploreDFS,
			Schedules: 1 << 16, Workers: 4, Procs: 2, Threads: 2, MaxSteps: 2_000_000,
		})
		if !rep.Exhausted {
			b.Fatal("DFS did not exhaust the racer")
		}
		schedules = rep.Schedules
	}
	b.ReportMetric(float64(schedules), "schedules-to-exhaustion")
}
