package parcoach_test

import (
	"strings"
	"testing"

	"parcoach"
	"parcoach/internal/mhgen"
	"parcoach/internal/sched"
)

// campaignSeeds is the compact corpus the campaign tests sweep: two
// full bug-class cycles of mhgen seeds.
func campaignSeeds(n uint64) []uint64 {
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = uint64(i)
	}
	return seeds
}

// TestCampaignDeterministicAcrossWorkers pins the determinism
// contract: a fixed-seed campaign renders byte-identically at any
// worker count — every coverage-set update, splice and mutation
// decision happens in the serial merge, never in the parallel phase.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	var reports []string
	for _, workers := range []int{1, 4, 8} {
		rep, err := parcoach.Campaign(parcoach.CampaignOptions{
			Seeds:   campaignSeeds(20),
			Budget:  140,
			Seed:    7,
			Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		reports = append(reports, rep.Format())
	}
	for i := 1; i < len(reports); i++ {
		if reports[i] != reports[0] {
			t.Fatalf("campaign report differs between worker counts:\n--- workers=1\n%s\n--- other\n%s",
				reports[0], reports[i])
		}
	}
}

// TestCampaignSmoke is the CI campaign-smoke assertion set: a small
// fixed-seed campaign's coverage trajectory grows monotonically, it
// catches bugs, and every committed corpus entry with a recorded
// failing schedule replays to the same detection — mutants from their
// (reduced) committed source, seed entries from their seed.
func TestCampaignSmoke(t *testing.T) {
	rep, err := parcoach.Campaign(parcoach.CampaignOptions{
		Seeds:  campaignSeeds(20),
		Budget: 140,
		Seed:   7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Trajectory) == 0 {
		t.Fatal("campaign ran no rounds")
	}
	last := 0
	for _, p := range rep.Trajectory {
		if p.Coverage < last {
			t.Fatalf("coverage shrank at round %d: %d -> %d", p.Round, last, p.Coverage)
		}
		last = p.Coverage
	}
	if last == 0 {
		t.Fatal("campaign accumulated no coverage")
	}
	if len(rep.Bugs) == 0 {
		t.Fatal("campaign caught no planted bugs")
	}
	if rep.Runs > rep.Budget {
		t.Fatalf("campaign overspent its budget: %d > %d", rep.Runs, rep.Budget)
	}

	replayed := 0
	for _, ce := range rep.Corpus {
		if ce.FailToken == "" {
			continue
		}
		src := ce.Source
		if ce.Origin == "seed" {
			src = mhgen.FromSeed(ce.Seed).Source
		}
		p, err := parcoach.Compile(ce.Name+".mh", src, parcoach.Options{Mode: parcoach.ModeFull})
		if err != nil {
			t.Fatalf("corpus entry %s no longer compiles: %v", ce.Name, err)
		}
		s, err := sched.Parse(ce.FailToken)
		if err != nil {
			t.Fatalf("corpus entry %s has an unparsable fail token %q: %v", ce.Name, ce.FailToken, err)
		}
		res := p.NewSession(parcoach.RunOptions{Procs: ce.Procs, Threads: ce.Threads, MaxSteps: 2_000_000}, false).Run(s)
		out := res.Outcome()
		if out != parcoach.RunCheckAbort && out != parcoach.RunValueError {
			t.Fatalf("corpus entry %s: recorded failing schedule replays %s:\n%s", ce.Name, out, src)
		}
		if res.Diverged {
			t.Fatalf("corpus entry %s: fail-token replay diverged", ce.Name)
		}
		replayed++
	}
	if replayed == 0 {
		t.Fatal("no corpus entry recorded a failing schedule")
	}
}

// TestCampaignUniformBaseline: the uniform mode spreads the budget
// evenly, one schedule per entry per round, with no mutation, and its
// report carries the same coverage signal as the campaign's.
func TestCampaignUniformBaseline(t *testing.T) {
	rep, err := parcoach.Campaign(parcoach.CampaignOptions{
		Seeds:   campaignSeeds(10),
		Budget:  40,
		Seed:    7,
		Uniform: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs != 40 {
		t.Fatalf("uniform sweep ran %d schedules, want 40", rep.Runs)
	}
	if rep.Mutants != 0 {
		t.Fatalf("uniform sweep admitted %d mutants", rep.Mutants)
	}
	for _, ce := range rep.Corpus {
		if ce.Runs != 4 {
			t.Fatalf("uniform sweep gave %s %d runs, want 4", ce.Name, ce.Runs)
		}
	}
	if !strings.HasPrefix(rep.Format(), "uniform ") {
		t.Fatalf("uniform report mislabeled:\n%s", rep.Format())
	}
}

// TestCampaignGolden pins the rendered report of an adaptive and of a
// uniform campaign against testdata/golden (regenerate with -update):
// every allocation, retirement, mutation and splice decision shows in
// the trajectory and the corpus listing.
func TestCampaignGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts parcoach.CampaignOptions
	}{
		{"campaign-adaptive", robustOpts(1)},
		{"campaign-uniform", parcoach.CampaignOptions{Seeds: campaignSeeds(10), Budget: 40, Seed: 7, Uniform: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := parcoach.Campaign(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, tc.name, rep.Format())
		})
	}
}

// TestCampaignBeatsUniformSweep is the campaign's reason to exist: on
// the same corpus, master seed and default budget, the coverage-guided
// campaign reaches the uniform sweep's final coverage within half the
// sweep's runs, and still catches every planted bug the sweep caught.
// Reduction is off: it changes the corpus listing, never the
// trajectory.
func TestCampaignBeatsUniformSweep(t *testing.T) {
	opts := parcoach.CampaignOptions{Seeds: campaignSeeds(20), Seed: 42, NoReduce: true}
	camp, err := parcoach.Campaign(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Uniform = true
	sweep, err := parcoach.Campaign(opts)
	if err != nil {
		t.Fatal(err)
	}
	reached := -1
	for _, p := range camp.Trajectory {
		if p.Coverage >= sweep.Coverage {
			reached = p.Runs
			break
		}
	}
	if reached < 0 || reached > sweep.Runs/2 {
		t.Errorf("campaign reached the sweep's coverage %d at run %d (-1: never), want within %d of the sweep's %d runs",
			sweep.Coverage, reached, sweep.Runs/2, sweep.Runs)
	}
	caught := make(map[string]bool, len(camp.Bugs))
	for _, b := range camp.Bugs {
		caught[b] = true
	}
	for _, b := range sweep.Bugs {
		if !caught[b] {
			t.Errorf("the sweep caught %s, the campaign did not", b)
		}
	}
	t.Logf("sweep: %d runs, %d keys, %d bugs; campaign: reached %d keys at run %d, %d bugs",
		sweep.Runs, sweep.Coverage, len(sweep.Bugs), sweep.Coverage, reached, len(camp.Bugs))
}
