package main

import (
	"fmt"
	"slices"
	"time"

	"parcoach"
	"parcoach/internal/mhgen"
	"parcoach/internal/workload"
)

// The campaign workload: default-options campaigns (as `mhgen
// campaign`: mutation and reduction on), one five-seed window per
// operation, on one worker; a report does not depend on the worker
// count. Reducing the mutants that caught a bug (mhgen.Reduce plus a
// recompile and a replay per candidate) takes nearly all of the time, a
// cost no other workload pays.
//
// The timed campaigns are fixed. Reduction cost per window is
// heavy-tailed (0.2 s to 26 s measured over forty windows), so windows
// drawn from the seed would move the median more than any regression
// bound; these are windows among seeds 0–79 whose campaigns take well
// under two seconds. They all run under master seed timedMaster, which
// drives the schedule streams and the mutations, so every operation on
// a window repeats the same work however many passes a run completes;
// master seeds taken from the seed moved the slowest window's median,
// and with it p95_ms, by 14% (quartile spread over eight seeds). After
// the measured loop, untimed, the first campaign is run again and must
// render byte-identically, and the seed's own window, 40N…40N+4, is
// checked twice under master seed N, without reduction, which bounds
// its cost.
var campaignWindows = []uint64{10, 40, 50, 55, 60, 65, 75}

const (
	campaignWindow  = 5
	campaignWorkers = 1
	timedMaster     = 0
)

func windowSeeds(start uint64) []uint64 {
	seeds := make([]uint64, campaignWindow)
	for i := range seeds {
		seeds[i] = start + uint64(i)
	}
	return seeds
}

// plantedLabels lists, in report order, the caught-bug labels a campaign
// over seeds must report: one per seed with a planted bug, from the
// generator's own label.
func plantedLabels(seeds []uint64) []string {
	var out []string
	for _, s := range seeds {
		if b := mhgen.FromSeed(s).Bug; b != workload.BugNone {
			out = append(out, fmt.Sprintf("s%d:%s", s, b))
		}
	}
	slices.Sort(out)
	return out
}

// checkCampaign requires every planted bug of the window to be caught
// and, when ref is set, the report to render byte-identically to the
// earlier campaign of the same window and master seed.
func checkCampaign(start uint64, rep *parcoach.CampaignReport, want []string, ref string) error {
	if !slices.Equal(rep.Bugs, want) {
		return fmt.Errorf("campaign window %d: caught %v, want %v", start, rep.Bugs, want)
	}
	if ref != "" && rep.Format() != ref {
		return fmt.Errorf("campaign window %d: report differs from the previous identical campaign", start)
	}
	return nil
}

func runCampaign(start, master uint64, noReduce bool) (*parcoach.CampaignReport, error) {
	return parcoach.Campaign(parcoach.CampaignOptions{
		Seeds: windowSeeds(start), Seed: master, Workers: campaignWorkers, NoReduce: noReduce,
	})
}

func setupCampaign(c config, r *Run, tr *tracer) (bench, error) {
	windows := campaignWindows
	if c.smoke {
		windows = windows[1:2]
	}
	// Warm-up: generate and compile every program of the panel once.
	comp := parcoach.NewCompiler(1)
	wants := make([][]string, len(windows))
	var seeds []uint64
	for k, start := range windows {
		seeds = append(seeds, windowSeeds(start)...)
		wants[k] = plantedLabels(windowSeeds(start))
	}
	for _, seed := range seeds {
		t0 := time.Now()
		gp := mhgen.FromSeed(seed)
		tr.add("mhgen.generate", "mhgen", -1, -1, t0, time.Now())
		t0 = time.Now()
		p, err := comp.Compile(gp.Name+".mh", gp.Source, parcoach.Options{Mode: parcoach.ModeFull})
		if err != nil {
			return nil, fmt.Errorf("compile %s: %v", gp.Name, err)
		}
		tr.addCompile(-1, t0, time.Now(), p)
	}
	var first string // operation 0's report, rendered
	seeded := c.seed * 40
	r.Params["windows"] = windows
	r.Params["window_seeds"] = campaignWindow
	r.Params["master_seed"] = timedMaster
	r.Params["checked_untimed"] = fmt.Sprintf("operation 0 again; window %d, twice, NoReduce", seeded)
	r.Params["campaign_workers"] = campaignWorkers
	r.Params["options"] = "defaults (budget 16 per seed, mutation, splicing, reduction)"
	return &closed{
		passLen: len(windows),
		op: func(i int, tr *tracer) (int, error) {
			k := i % len(windows)
			t0 := time.Now()
			rep, err := runCampaign(windows[k], timedMaster, false)
			tr.add("campaign", "campaign", -1, i, t0, time.Now())
			if err != nil {
				return 0, fmt.Errorf("campaign window %d: %v", windows[k], err)
			}
			ref := ""
			if i == 0 {
				ref = first
				first = rep.Format()
			}
			return rep.Runs, checkCampaign(windows[k], rep, wants[k], ref)
		},
		check: func(r *Run) {
			rep, err := runCampaign(windows[0], timedMaster, false)
			if err == nil {
				err = checkCampaign(windows[0], rep, wants[0], first)
			}
			r.check(err)
			want, ref := plantedLabels(windowSeeds(seeded)), ""
			for i := 0; i < 2; i++ {
				rep, err := runCampaign(seeded, c.seed, true)
				if err == nil {
					err = checkCampaign(seeded, rep, want, ref)
					ref = rep.Format()
				}
				r.check(err)
			}
		},
	}, nil
}
