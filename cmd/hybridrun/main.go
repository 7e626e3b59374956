// Command hybridrun compiles a MiniHybrid program and executes it on the
// simulated MPI+threads runtime, optionally with the paper's verification
// instrumentation active. Erroneous programs terminate with a located
// verification error (instrumented) or with the runtime's own mismatch or
// deadlock report (uninstrumented) instead of hanging.
//
// The single default run is serialized under the default schedule, so
// it prints the same bytes every time. Beyond it, the
// schedule-exploration engine can sweep the interleaving space
// (-explore; dfs enumerates it under dynamic partial-order reduction)
// and any failing schedule it prints can be reproduced exactly
// (-replay):
//
//	hybridrun -explore dfs -schedules 512 racer.mh
//	  exploration: strategy=dfs schedules=9 exhausted=true sleepskips=10
//	  ... first failure at schedule 2 (deadlock)
//	      replay with: -replay 'trace:0.0.0.0.0.0.1.1.1.1.3.3.1.2.2.0.0.0'
//	hybridrun -replay 'trace:0.0.0.0.0.0.1.1.1.1.3.3.1.2.2.0.0.0' racer.mh
//
// Usage:
//
//	hybridrun [flags] file.mh
//
//	-np N          number of MPI processes (default 2)
//	-threads N     default team size of parallel regions (default 2)
//	-instrument    run the statically instrumented program (default true)
//	-level L       single|funneled|serialized|multiple (default multiple)
//	-policy P      single election: first-arrival|round-robin
//	-max-steps N   statement budget before the run is aborted
//	-explore S     explore schedules with strategy rr|random|pct|dfs
//	-schedules N   exploration run budget (default 16)
//	-sched-seed N  base seed of the random/pct samplers
//	-workers N     worker pool width for -explore's runs (0 = all
//	               cores, 1 = serial); reports do not depend on it
//	-replay TOK    run the single schedule named by a replay token
//	-timeout D     wall-clock bound: a single run is aborted by the
//	               watchdog after D; an exploration is canceled at the
//	               deadline and prints its partial report. Either way
//	               the exit code is 3 (0 = none)
//
// -replay and -explore are mutually exclusive; combining them (or a
// negative -timeout) exits 2.
//
// Exit codes: 0 clean, 1 verification/run failure, 2 usage error,
// 3 timed out.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"parcoach"
	"parcoach/internal/explore"
	"parcoach/internal/mpi"
	"parcoach/internal/omp"
	"parcoach/internal/sched"
)

func main() {
	np := flag.Int("np", 2, "number of MPI processes")
	threads := flag.Int("threads", 2, "default team size")
	instrumented := flag.Bool("instrument", true, "run with verification instrumentation")
	level := flag.String("level", "multiple", "MPI thread level")
	policy := flag.String("policy", "first-arrival", "single election policy")
	maxSteps := flag.Int64("max-steps", 0, "statement budget (0 = default)")
	workers := flag.Int("workers", 0, "worker pool width for -explore's runs (0 = all cores, 1 = serial)")
	exploreStrat := flag.String("explore", "", "explore the schedule space: rr|random|pct|dfs")
	schedules := flag.Int("schedules", 16, "exploration schedule budget")
	schedSeed := flag.Int64("sched-seed", 0, "base seed of the random/pct schedule samplers")
	replay := flag.String("replay", "", "replay one schedule from its token (rr, rand:<seed>, pct:<seed>:<depth>, trace:...)")
	timeout := flag.Duration("timeout", 0, "wall-clock bound on the run/exploration; exceeding it exits 3 (0 = none)")
	flag.Parse()

	if *timeout < 0 {
		fatal(fmt.Errorf("-timeout must be non-negative, got %v", *timeout))
	}

	// Flags that are meaningless together are an error, not a silent
	// precedence pick: a user combining them always means something the
	// run would not do.
	if *exploreStrat != "" && *replay != "" {
		fatal(fmt.Errorf("-replay and -explore are mutually exclusive: a replay runs the one schedule its token names, an exploration enumerates many"))
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: hybridrun [flags] file.mh")
		flag.Usage()
		os.Exit(2)
	}
	file := flag.Arg(0)
	src, err := os.ReadFile(file)
	if err != nil {
		fatal(err)
	}

	// -instrument=false normally compiles baseline (no analysis at all),
	// but an exploration should still print the static warnings and
	// merely *run* the uninstrumented tree — so with -explore the compile
	// is always full and the flag selects which tree is explored below.
	mode := parcoach.ModeFull
	if !*instrumented && *exploreStrat == "" {
		mode = parcoach.ModeBaseline
	}
	prog, err := parcoach.Compile(file, string(src), parcoach.Options{Mode: mode})
	if err != nil {
		fatal(err)
	}
	for _, d := range prog.Warnings() {
		fmt.Fprintln(os.Stderr, "warning:", d)
	}

	opts := parcoach.RunOptions{Procs: *np, Threads: *threads, MaxSteps: *maxSteps}
	if opts.Level, err = mpi.ParseThreadLevel(*level); err != nil {
		fatal(err)
	}
	if opts.Policy, err = omp.ParsePolicy(*policy); err != nil {
		fatal(err)
	}

	if *exploreStrat != "" {
		strat, err := explore.ParseStrategy(*exploreStrat)
		if err != nil {
			fatal(err)
		}
		eopts := parcoach.ExploreOptions{
			Strategy:  strat,
			Schedules: *schedules,
			Seed:      *schedSeed,
			Workers:   *workers,
		}
		if *timeout > 0 {
			ctx, cancel := context.WithTimeout(context.Background(), *timeout)
			defer cancel()
			eopts.Ctx = ctx
		}
		// Explored runs take the exploration step budget, print nothing
		// and carry no watchdog (-timeout bounds the whole exploration).
		// -instrument=false explores the pristine source: the schedule
		// space as a real machine would see it, without the planted
		// checks.
		if opts.MaxSteps <= 0 {
			opts.MaxSteps = explore.DefaultMaxSteps
		}
		rep := explore.ExploreSession(prog.NewSession(opts, !*instrumented), eopts)
		fmt.Print(rep)
		if rep.Canceled {
			fmt.Fprintf(os.Stderr, "hybridrun: exploration timed out after %v; the report above is partial\n", *timeout)
			os.Exit(3)
		}
		if rep.FirstFailure != nil {
			os.Exit(1)
		}
		return
	}

	var scheduler sched.Scheduler
	if *replay != "" {
		if scheduler, err = sched.Parse(*replay); err != nil {
			fatal(err)
		}
		if *maxSteps == 0 {
			// Match the exploration default so a printed schedule —
			// including a budget-exhausted one — reproduces under the
			// same statement bound it was found with.
			opts.MaxSteps = explore.DefaultMaxSteps
		}
	}

	opts.Stdout = os.Stdout
	opts.WallTimeout = *timeout
	res := prog.NewSession(opts, false).Run(scheduler)
	if res.Outcome() == parcoach.RunTimeout {
		fmt.Fprintf(os.Stderr, "hybridrun: run abandoned by the watchdog after %v\n", *timeout)
		os.Exit(3)
	}
	if res.Diverged {
		// The run did not follow the trace (it named a thread that was
		// not enabled, or the run ended before the trace did): the
		// program (or its flags) differ from the recording, so whatever
		// just ran was NOT the recorded schedule — never let that pass
		// as a reproduction.
		fmt.Fprintf(os.Stderr, "hybridrun: replay diverged — trace %q does not match this program/configuration\n", *replay)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "stats: collectives=%d p2p=%d barriers=%d steps=%d cc-checks=%d phase-checks=%d value-checks=%d\n",
		res.Stats.Collectives, res.Stats.P2PMessages, res.Stats.Barriers,
		res.Stats.Steps, res.Stats.CCChecks, res.Stats.PhaseChecks, res.Stats.ValueChecks)
	if res.Err != nil {
		fmt.Fprintln(os.Stderr, "run failed:", res.Err)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hybridrun:", err)
	os.Exit(2)
}
