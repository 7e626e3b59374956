package main

import (
	"fmt"
	"time"

	"parcoach"
	"parcoach/internal/workload"
)

// The sample workload: each operation explores one Figure 1 program at
// ScaleA with two seeded random schedules on one worker. Every run is
// serialized through the scheduler with the CC checks and the value
// oracle armed, but records no happens-before trace and keeps no DFS
// frontier. A pass samples every program sampleSweeps times, in about
// two seconds.
const (
	sampleSchedules = 2
	sampleSweeps    = 4
	sampleWorkers   = 1
)

type sampleProg struct {
	name string
	prog *parcoach.Program
}

// checkClean requires every explored schedule of a correct program to
// end clean.
func checkClean(name string, rep *parcoach.ExplorationReport, schedules int) error {
	if rep.Schedules != schedules {
		return fmt.Errorf("%s: %d schedules ran, want %d", name, rep.Schedules, schedules)
	}
	for _, v := range rep.Verdicts {
		if v.Outcome != parcoach.RunClean {
			return fmt.Errorf("%s: correct program ended %s under %s: %s", name, v.Outcome, v.Schedule, v.Sample)
		}
	}
	return nil
}

func setupSample(c config, r *Run, tr *tracer) (bench, error) {
	scale, scaleName := workload.ScaleA, "A"
	if c.smoke {
		scale, scaleName = workload.ScaleS, "S"
	}
	fig1 := workload.Figure1Set(scale)
	var progs []sampleProg
	for _, w := range fig1 {
		t0 := time.Now()
		p, err := parcoach.Compile(w.Name+".mh", w.Source, parcoach.Options{Mode: parcoach.ModeFull, Workers: 1})
		if err != nil {
			return nil, fmt.Errorf("compile %s: %v", w.Name, err)
		}
		tr.addCompile(-1, t0, time.Now(), p)
		// Warm-up and check: one free-running run ends clean.
		t0 = time.Now()
		res := p.Run(parcoach.RunOptions{Procs: 2, Threads: 2})
		tr.add("run.free", "interp", -1, -1, t0, time.Now())
		if res.Err != nil {
			err = fmt.Errorf("%s: correct program failed a free run: %v", w.Name, res.Err)
		}
		r.check(err)
		progs = append(progs, sampleProg{w.Name, p})
	}
	base := int64(c.seed) << 32
	r.Params["figure1_scale"] = scaleName
	r.Params["schedules_per_op"] = sampleSchedules
	r.Params["explore_workers"] = sampleWorkers
	r.Params["procs_threads"] = "2x2"
	r.Params["schedule_seed_base"] = base
	r.Params["sweeps_per_pass"] = sampleSweeps
	// Each operation draws its own schedules, whose lengths differ, so a
	// program's latency is the median over all of its operations.
	input := make([]int, sampleSweeps*len(progs))
	for k := range input {
		input[k] = k % len(progs)
	}
	return &closed{passLen: len(input), input: input, op: func(i int, tr *tracer) (int, error) {
		sp := progs[i%len(progs)]
		t0 := time.Now()
		rep := sp.prog.Explore(parcoach.ExploreOptions{
			Strategy:  parcoach.ExploreRandom,
			Schedules: sampleSchedules,
			Seed:      base + int64(i)*sampleSchedules,
			Workers:   sampleWorkers,
			Procs:     2,
			Threads:   2,
		})
		tr.add("explore.random", "explore", -1, i, t0, time.Now())
		return rep.Schedules, checkClean(sp.name, rep, sampleSchedules)
	}}, nil
}
