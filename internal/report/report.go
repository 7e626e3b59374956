// Package report regenerates the paper's experimental results as text
// tables: Figure 1 (compile-time overhead of warnings and of warnings +
// verification-code generation), the warning inventory the static phase
// prints for each benchmark, the error-detection matrix, the runtime
// overhead of the selective instrumentation, and the ablation of the
// design choices. cmd/figures is a thin shell over this package, and the
// root bench suite exercises the same paths under testing.B.
package report

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"parcoach"
	"parcoach/internal/core"
	"parcoach/internal/mpi"
	"parcoach/internal/omp"
	"parcoach/internal/sched"
	"parcoach/internal/verifier"
	"parcoach/internal/workload"
)

// CompileTimes holds the per-mode compile time of one benchmark.
type CompileTimes struct {
	Name     string
	Baseline time.Duration
	Analyze  time.Duration
	Full     time.Duration
}

// OverheadAnalyze returns the Figure 1 "warnings only" percentage.
func (c CompileTimes) OverheadAnalyze() float64 {
	return pct(c.Analyze, c.Baseline)
}

// OverheadFull returns the Figure 1 "warnings + verification code
// generation" percentage.
func (c CompileTimes) OverheadFull() float64 {
	return pct(c.Full, c.Baseline)
}

func pct(mode, base time.Duration) float64 {
	if base <= 0 {
		return 0
	}
	return (float64(mode)/float64(base) - 1) * 100
}

// MeasureCompile derives the three Figure 1 bars from the per-phase
// timings of full-mode compiles: within one compile, front end, backend,
// analysis and instrumentation run under identical machine conditions, so
// their ratio is immune to the run-to-run noise (GC scheduling, frequency
// drift) that dominates when separate baseline/analyze/full runs are
// compared on sub-millisecond compiles. The baseline bar is frontend +
// backend — exactly what ModeBaseline executes — and the fastest of iters
// compiles is kept.
func MeasureCompile(w workload.Workload, iters int) (CompileTimes, error) {
	if iters < 1 {
		iters = 1
	}
	out := CompileTimes{Name: w.Name}
	var bestTotal time.Duration
	for i := 0; i < iters; i++ {
		runtime.GC()
		p, err := parcoach.Compile(w.Name+".mh", w.Source, parcoach.Options{Mode: parcoach.ModeFull})
		if err != nil {
			return out, err
		}
		total := p.Timing.Frontend + p.Timing.Backend + p.Timing.Analysis + p.Timing.Instrument
		if bestTotal != 0 && total >= bestTotal {
			continue
		}
		bestTotal = total
		out.Baseline = p.Timing.Frontend + p.Timing.Backend
		out.Analyze = out.Baseline + p.Timing.Analysis
		out.Full = out.Analyze + p.Timing.Instrument
	}
	return out, nil
}

// Figure1 reproduces the paper's Figure 1: average compilation overhead
// with and without verification code generation for BT-MZ, SP-MZ, LU-MZ,
// the EPCC suite and HERA. The baseline is the frontend plus fold, CFG
// and DCE, far less than the rest of GCC the paper measures against, so
// the percentages read higher than the paper's.
func Figure1(sc workload.Scale, iters int) (string, error) {
	var b strings.Builder
	b.WriteString("Figure 1 — compile-time overhead of the verification (vs baseline compile)\n\n")
	fmt.Fprintf(&b, "%-10s %12s %14s %14s %12s %12s\n",
		"benchmark", "baseline", "warnings", "warn+codegen", "ovh-warn%", "ovh-code%")
	for _, w := range workload.Figure1Set(sc) {
		ct, err := MeasureCompile(w, iters)
		if err != nil {
			return "", fmt.Errorf("%s: %w", w.Name, err)
		}
		fmt.Fprintf(&b, "%-10s %12s %14s %14s %11.2f%% %11.2f%%\n",
			ct.Name, fmtDur(ct.Baseline), fmtDur(ct.Analyze), fmtDur(ct.Full),
			ct.OverheadAnalyze(), ct.OverheadFull())
	}
	b.WriteString("\nbaseline: frontend + fold/CFG/DCE, no code generation, so both overheads\n" +
		"read higher than the paper's ≤6% against all of GCC; codegen ≥ warnings-only\n")
	return b.String(), nil
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/1e6)
	default:
		return fmt.Sprintf("%.1fµs", float64(d)/1e3)
	}
}

// WarningInventory reproduces the static phase's output claim: for each
// benchmark and each seeded bug class, the number and kinds of warnings
// issued (the base versions are warning-free).
func WarningInventory(sc workload.Scale) (string, error) {
	var b strings.Builder
	b.WriteString("Warning inventory — compile-time warnings per benchmark and seeded bug class\n\n")
	fmt.Fprintf(&b, "%-10s %-26s %6s %-s\n", "benchmark", "seeded bug", "warns", "kinds")
	gens := []struct {
		name string
		make func(workload.Scale, workload.Bug) workload.Workload
	}{
		{"BT-MZ", workload.BTMZ}, {"SP-MZ", workload.SPMZ}, {"LU-MZ", workload.LUMZ},
		{"EPCC", workload.EPCC}, {"HERA", workload.HERA},
	}
	bugs := append([]workload.Bug{workload.BugNone}, workload.AllBugs...)
	for _, g := range gens {
		for _, bug := range bugs {
			w := g.make(sc, bug)
			p, err := parcoach.Compile(w.Name+".mh", w.Source, parcoach.Options{Mode: parcoach.ModeAnalyze})
			if err != nil {
				return "", fmt.Errorf("%s+%s: %w", g.name, bug, err)
			}
			warns := p.Warnings()
			fmt.Fprintf(&b, "%-10s %-26s %6d %s\n", g.name, bug.String(), len(warns), kindSummary(warns))
		}
	}
	return b.String(), nil
}

func kindSummary(diags []parcoach.Diagnostic) string {
	counts := core.CountByKind(diags)
	if len(counts) == 0 {
		return "-"
	}
	type kv struct {
		k core.DiagKind
		n int
	}
	var list []kv
	for k, n := range counts {
		list = append(list, kv{k, n})
	}
	sort.Slice(list, func(i, j int) bool { return list[i].k < list[j].k })
	parts := make([]string, len(list))
	for i, e := range list {
		parts[i] = fmt.Sprintf("%s×%d", e.k, e.n)
	}
	return strings.Join(parts, ", ")
}

// DetectionMatrix reproduces the tool's end-to-end claim: every bug class
// is (a) warned about statically and (b) stopped at run time by the
// instrumentation with a located error, before the runtime deadlocks.
func DetectionMatrix() (string, error) {
	var b strings.Builder
	b.WriteString("Detection matrix — micro error corpus, np=2 (np=1 for intra-process races), threads=2\n\n")
	fmt.Fprintf(&b, "%-26s %-28s %-28s %s\n", "bug class", "static warning", "instrumented run", "uninstrumented run")
	for _, bug := range append([]workload.Bug{workload.BugNone}, workload.AllBugs...) {
		w := workload.Micro(bug)
		p, err := parcoach.Compile(w.Name+".mh", w.Source, parcoach.Options{Mode: parcoach.ModeFull})
		if err != nil {
			return "", err
		}
		static := "-"
		if warns := p.Warnings(); len(warns) > 0 {
			static = warns[0].Kind.String()
		}
		procs := 2
		if bug == workload.BugConcurrentSingles || bug == workload.BugSectionsCollectives {
			procs = 1
		}
		runOpts := parcoach.RunOptions{Procs: procs, Threads: 2, Policy: omp.RoundRobin}
		var dynamic, ground string
		if bug == workload.BugTornBuffer {
			// The torn source buffer only manifests under particular
			// interleavings — a single default run can miss it, so
			// the matrix judges it the way the tool does (schedule
			// exploration) and pins the uninstrumented ground-truth run to
			// the deterministic round-robin scheduler, which provably
			// misses the race: on a real machine it is silent corruption.
			rep := p.Explore(parcoach.ExploreOptions{
				Strategy:  parcoach.ExploreRandom,
				Schedules: 8,
				Procs:     procs,
				Threads:   2,
			})
			dynamic = "explored: completes"
			if v := rep.Verdict(parcoach.RunValueError); v != nil {
				dynamic = "explored: value oracle @ " + v.Schedule
			}
			ground = describeRunError(p.NewSession(runOpts, true).Run(sched.NewRoundRobin()).Err)
		} else {
			dynamic = describeRunError(p.Run(runOpts).Err)
			ground = describeRunError(p.RunUninstrumented(runOpts).Err)
		}
		fmt.Fprintf(&b, "%-26s %-28s %-28s %s\n", bug.String(), static, dynamic, ground)
	}
	b.WriteString("\n(instrumented runs abort with located verification errors; uninstrumented\n")
	b.WriteString(" runs show what would happen on a real machine: mismatch, hang, or silence)\n")
	return b.String(), nil
}

func describeRunError(err error) string {
	switch parcoach.ClassifyRun(err) {
	case parcoach.RunClean:
		return "completes"
	case parcoach.RunCheckAbort:
		var e *verifier.Error
		errors.As(err, &e)
		return "verifier: " + e.Kind.String()
	case parcoach.RunMPIError:
		var mm *mpi.MismatchError
		var cc *mpi.ConcurrentCallError
		switch {
		case errors.As(err, &mm):
			return "runtime mismatch"
		case errors.As(err, &cc):
			return "runtime concurrent calls"
		default:
			return "runtime usage error"
		}
	case parcoach.RunDeadlock:
		return "deadlock (detected)"
	case parcoach.RunBudget:
		return "step budget exhausted"
	case parcoach.RunValueError:
		var ve *verifier.ValueError
		if errors.As(err, &ve) {
			return "value oracle: " + ve.Check.String()
		}
		return "value oracle"
	default:
		return "error"
	}
}

// OverheadRow is one line of the runtime-overhead experiment.
type OverheadRow struct {
	Name          string
	PlainTime     time.Duration
	SelectiveTime time.Duration
	FullTime      time.Duration
	SelChecks     int
	FullChecks    int
}

// MeasureRuntime compares execution time of a correct benchmark without
// instrumentation, with the paper's selective instrumentation, and with
// the unrefined (RawPDF) instrumentation that checks every collective —
// quantifying the claim that selectivity keeps runtime cost low.
func MeasureRuntime(w workload.Workload, procs, threads, iters int) (OverheadRow, error) {
	row := OverheadRow{Name: w.Name}
	sel, err := parcoach.Compile(w.Name+".mh", w.Source, parcoach.Options{Mode: parcoach.ModeFull})
	if err != nil {
		return row, err
	}
	full, err := parcoach.Compile(w.Name+".mh", w.Source, parcoach.Options{Mode: parcoach.ModeFull, RawPDF: true})
	if err != nil {
		return row, err
	}
	run := func(p *parcoach.Program, instrumented bool) (time.Duration, int, error) {
		best := time.Duration(0)
		checks := 0
		for i := 0; i < iters; i++ {
			var res *parcoach.RunResult
			start := time.Now()
			if instrumented {
				res = p.Run(parcoach.RunOptions{Procs: procs, Threads: threads})
			} else {
				res = p.RunUninstrumented(parcoach.RunOptions{Procs: procs, Threads: threads})
			}
			d := time.Since(start)
			if res.Err != nil {
				return 0, 0, fmt.Errorf("%s run failed: %w", w.Name, res.Err)
			}
			if best == 0 || d < best {
				best = d
			}
			checks = res.Stats.CCChecks + res.Stats.PhaseChecks
		}
		return best, checks, nil
	}
	if row.PlainTime, _, err = run(sel, false); err != nil {
		return row, err
	}
	if row.SelectiveTime, row.SelChecks, err = run(sel, true); err != nil {
		return row, err
	}
	if row.FullTime, row.FullChecks, err = run(full, true); err != nil {
		return row, err
	}
	return row, nil
}

// RuntimeOverhead renders the runtime-overhead table for the Figure 1
// benchmark set.
func RuntimeOverhead(sc workload.Scale, procs, threads, iters int) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Runtime overhead — correct benchmarks, np=%d, threads=%d\n\n", procs, threads)
	fmt.Fprintf(&b, "%-10s %12s %12s %10s %8s %12s %10s %8s\n",
		"benchmark", "plain", "selective", "ovh%", "checks", "full-instr", "ovh%", "checks")
	for _, w := range workload.Figure1Set(sc) {
		row, err := MeasureRuntime(w, procs, threads, iters)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-10s %12s %12s %9.2f%% %8d %12s %9.2f%% %8d\n",
			row.Name, fmtDur(row.PlainTime), fmtDur(row.SelectiveTime),
			pct(row.SelectiveTime, row.PlainTime), row.SelChecks,
			fmtDur(row.FullTime), pct(row.FullTime, row.PlainTime), row.FullChecks)
	}
	b.WriteString("\nselective instrumentation of clean code inserts no checks (the paper's point);\n")
	b.WriteString("full instrumentation (raw PDF+, no rank-dependence filter) shows the avoided cost\n")
	return b.String(), nil
}

// Ablation reports where compile time goes per phase and what the
// rank-dependence refinement saves in warnings and checks.
func Ablation(sc workload.Scale, iters int) (string, error) {
	var b strings.Builder
	b.WriteString("Ablation — phase timing and the rank-dependence refinement of Algorithm 1\n\n")
	fmt.Fprintf(&b, "%-10s %10s %10s %10s %10s | %14s %14s\n",
		"benchmark", "frontend", "backend", "analysis", "instr", "warns sel/raw", "checks sel/raw")
	for _, w := range workload.Figure1Set(sc) {
		var sel, raw *parcoach.Program
		var err error
		for i := 0; i < iters; i++ {
			sel, err = parcoach.Compile(w.Name+".mh", w.Source, parcoach.Options{Mode: parcoach.ModeFull})
			if err != nil {
				return "", err
			}
		}
		raw, err = parcoach.Compile(w.Name+".mh", w.Source, parcoach.Options{Mode: parcoach.ModeFull, RawPDF: true})
		if err != nil {
			return "", err
		}
		selChecks := sel.Stats.Checks.CCChecks + sel.Stats.Checks.PhaseCounts + sel.Stats.Checks.ReturnChecks
		rawChecks := raw.Stats.Checks.CCChecks + raw.Stats.Checks.PhaseCounts + raw.Stats.Checks.ReturnChecks
		fmt.Fprintf(&b, "%-10s %10s %10s %10s %10s | %7d/%-6d %7d/%-6d\n",
			w.Name, fmtDur(sel.Timing.Frontend), fmtDur(sel.Timing.Backend),
			fmtDur(sel.Timing.Analysis), fmtDur(sel.Timing.Instrument),
			len(sel.Warnings()), len(raw.Warnings()), selChecks, rawChecks)
	}
	return b.String(), nil
}
