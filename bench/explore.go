package main

import (
	"fmt"
	"time"

	"parcoach"
	"parcoach/internal/explore"
	"parcoach/internal/mhgen"
	"parcoach/internal/workload"
)

// The explore workload: the hybridrun -explore verdict path. Each
// operation explores one program with DFS under dynamic partial-order
// reduction, to exhaustion or the schedule budget, on one worker, which
// explores the same schedules every time. Runs are short and record
// happens-before traces, so trace recording, race analysis and the
// sleep-set frontier dominate.
//
// The timed corpus is fixed: generated programs 0…exploreCorpus-1 plus
// the property-suite racer. Time to verdict is bimodal (a tenth of a
// millisecond to exhaust, up to a second at the budget), and which programs
// hit the budget decides the percentiles: replaying recorded verdict
// times, five programs drawn from the seed beside the forty fixed ones
// already move the median by 38% (quartile spread over ten seeds). The
// seed's own window of generated programs, 40N…40N+39, is explored and
// checked once after the measured loop, untimed.
//
// The median program is a quick one, explored to exhaustion in about a
// millisecond, and the host's speed moves by a tenth and more within
// seconds; once per pass, such a program's time was sampled four times
// a run and its median moved by a quarter between runs. So a pass runs
// every quick program after each slow one: every program's time is the
// median of all its explorations, and each quick program's rests on
// about twenty spread over the run. A program is quick when it is
// exhausted within quickBudget schedules, which set-up tries.
const (
	exploreCorpus  = 40
	exploreBudget  = 2048
	quickBudget    = 64
	exploreWorkers = 1
)

type exploreItem struct {
	name           string
	prog           *parcoach.Program
	procs, threads int
	bug            workload.Bug
	racer          bool
}

// scheduleDependent reports whether a planted class needs a particular
// interleaving to show at run time (the internal/mhgen/diff labelling);
// the other classes fail on every schedule.
func scheduleDependent(b workload.Bug) bool {
	switch b {
	case workload.BugMultithreadedCollective, workload.BugConcurrentSingles,
		workload.BugSectionsCollectives, workload.BugTornBuffer:
		return true
	}
	return false
}

// checkExplore judges an exploration against the program's planted
// label: clean programs show only clean verdicts; a planted bug is
// caught by a check or the value oracle on some schedule unless the
// compile already flagged it, and only a schedule-dependent bug may
// escape an exploration the budget cut short (one in five torn buffers
// among generated seeds 0–399 does); the racer reaches its
// schedule-only deadlock or the check that preempts it.
func checkExplore(it exploreItem, rep *parcoach.ExplorationReport) error {
	switch {
	case it.racer:
		if !rep.Caught(parcoach.RunDeadlock) && !rep.Caught(parcoach.RunCheckAbort) {
			return fmt.Errorf("%s: no deadlock or check abort in %d schedules", it.name, rep.Schedules)
		}
	case it.bug == workload.BugNone:
		for _, v := range rep.Verdicts {
			if v.Outcome != parcoach.RunClean {
				return fmt.Errorf("%s: clean program ended %s under %s", it.name, v.Outcome, v.Schedule)
			}
		}
	default:
		dynamic := rep.Caught(parcoach.RunCheckAbort) || rep.Caught(parcoach.RunValueError)
		cutShort := !rep.Exhausted && scheduleDependent(it.bug)
		if !dynamic && len(it.prog.Warnings()) == 0 && !cutShort {
			return fmt.Errorf("%s: planted %s neither flagged nor caught in %d schedules (exhausted=%t)",
				it.name, it.bug, rep.Schedules, rep.Exhausted)
		}
	}
	return nil
}

// exploreItems compiles the generated programs of seeds first…first+n-1,
// after the racer when racer is set.
func exploreItems(tr *tracer, racer bool, first uint64, n int) ([]exploreItem, error) {
	comp := parcoach.NewCompiler(1)
	var items []exploreItem
	if racer {
		items = append(items, exploreItem{name: "racer", procs: 2, threads: 2, racer: true})
	}
	at := len(items)
	items = append(items, make([]exploreItem, n)...)
	for k := range items {
		src := explore.BenchRacerSrc
		if k >= at {
			t0 := time.Now()
			gp := mhgen.FromSeed(first + uint64(k-at))
			tr.add("mhgen.generate", "mhgen", -1, -1, t0, time.Now())
			items[k] = exploreItem{name: gp.Name, procs: gp.Procs, threads: gp.Threads, bug: gp.Bug}
			src = gp.Source
		}
		t0 := time.Now()
		p, err := comp.Compile(items[k].name+".mh", src, parcoach.Options{Mode: parcoach.ModeFull})
		if err != nil {
			return nil, fmt.Errorf("compile %s: %v", items[k].name, err)
		}
		tr.addCompile(-1, t0, time.Now(), p)
		items[k].prog = p
	}
	return items, nil
}

func exploreOnce(it exploreItem, budget int) *parcoach.ExplorationReport {
	return it.prog.Explore(parcoach.ExploreOptions{
		Strategy:  parcoach.ExploreDFS,
		Frontier:  parcoach.ExploreFrontierDPOR,
		Schedules: budget,
		Workers:   exploreWorkers,
		Procs:     it.procs,
		Threads:   it.threads,
		MaxSteps:  explore.DefaultMaxSteps,
	})
}

func setupExplore(c config, r *Run, tr *tracer) (bench, error) {
	n := exploreCorpus
	if c.smoke {
		n = 5 // seed 7 alone takes a second
	}
	items, err := exploreItems(tr, true, 0, n)
	if err != nil {
		return nil, err
	}
	// Warm-up: the racer, checked.
	t0 := time.Now()
	r.check(checkExplore(items[0], exploreOnce(items[0], exploreBudget)))
	tr.add("explore.dpor", "explore", -1, -1, t0, time.Now())
	// The pass: each slow program followed by every quick one.
	t0 = time.Now()
	var quick, slow []int
	for k, it := range items {
		if exploreOnce(it, quickBudget).Exhausted {
			quick = append(quick, k)
		} else {
			slow = append(slow, k)
		}
	}
	tr.add("explore.classify", "explore", -1, -1, t0, time.Now())
	var seq []int
	for _, k := range slow {
		seq = append(append(seq, k), quick...)
	}
	if len(slow) == 0 {
		seq = quick
	}
	checkFirst, checkN := c.seed*exploreCorpus, exploreCorpus
	if c.smoke {
		checkN = 4
	}
	r.Params["corpus"] = fmt.Sprintf("racer + mhgen seeds 0-%d", n-1)
	r.Params["checked_untimed"] = fmt.Sprintf("mhgen seeds %d-%d", checkFirst, checkFirst+uint64(checkN)-1)
	r.Params["strategy"] = "dfs/dpor"
	r.Params["schedule_budget"] = exploreBudget
	r.Params["explore_workers"] = exploreWorkers
	r.Params["quick_programs"] = len(quick)
	return &closed{
		passLen: len(seq),
		input:   seq,
		op: func(i int, tr *tracer) (int, error) {
			it := items[seq[i%len(seq)]]
			t0 := time.Now()
			rep := exploreOnce(it, exploreBudget)
			tr.add("explore.dpor", "explore", -1, i, t0, time.Now())
			return rep.Schedules, checkExplore(it, rep)
		},
		check: func(r *Run) {
			seeded, err := exploreItems(nil, false, checkFirst, checkN)
			if err != nil {
				r.check(err)
				return
			}
			for _, it := range seeded {
				r.check(checkExplore(it, exploreOnce(it, exploreBudget)))
			}
		},
	}, nil
}
