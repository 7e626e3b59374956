// Command benchjson benchmarks the coverage-guided campaign engine
// (internal/campaign) against its own linear-sweep baseline and writes
// BENCH_campaign.json: the uniform sweep's final distinct coverage and
// found-bug set, the campaign's coverage-vs-budget trajectory, the
// budget at which the campaign matches the sweep's final coverage, and
// a byte-identity check of the campaign report across pool widths
// 1/4/8.
//
// Usage:
//
//	benchjson [-seeds 200] [-campaign-seed 42] [-o BENCH_campaign.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"parcoach"
)

// campaignSide is one arm of the campaign-vs-sweep comparison.
type campaignSide struct {
	Runs       int                      `json:"runs"`
	Coverage   int                      `json:"coverage"`
	Bugs       int                      `json:"bugs"`
	Trajectory []parcoach.CampaignPoint `json:"trajectory"`
}

// campaignReport is the BENCH_campaign.json shape. Everything in it is
// a pure function of (seeds, campaign_seed, uniform_budget) — CI and a
// laptop regenerate it byte-identically.
type campaignReport struct {
	Go            string `json:"go"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	Seeds         int    `json:"seeds"`
	CampaignSeed  uint64 `json:"campaign_seed"`
	UniformBudget int    `json:"uniform_budget"`

	Uniform  campaignSide `json:"uniform"`
	Campaign campaignSide `json:"campaign"`

	// BudgetToMatch is the campaign run count at which its cumulative
	// distinct coverage first reaches the uniform sweep's final count;
	// Speedup is uniform runs ÷ BudgetToMatch.
	BudgetToMatch int     `json:"budget_to_match"`
	Speedup       float64 `json:"speedup"`
	// BugSetsEqual records that both arms caught the identical planted
	// bug set — the adaptive allocation costs no detections.
	BugSetsEqual bool `json:"bug_sets_equal"`
	// WorkersChecked lists the pool widths whose campaign reports were
	// verified byte-identical (the determinism contract).
	WorkersChecked []int `json:"workers_checked"`
}

func main() {
	out := flag.String("o", "BENCH_campaign.json", "output file")
	seeds := flag.Int("seeds", 200, "initial corpus size")
	campaignSeed := flag.Uint64("campaign-seed", 42, "master seed")
	flag.Parse()
	campaignBench(*out, *seeds, *campaignSeed)
}

// campaignBench runs the linear sweep, then the campaign on the exact
// same corpus and total budget (mutation off so both arms cover the
// identical program set), verifies the campaign report is
// byte-identical at pool widths 1/4/8, and writes the comparison.
func campaignBench(out string, nseeds int, seed uint64) {
	seedList := make([]uint64, nseeds)
	for i := range seedList {
		seedList[i] = uint64(i)
	}

	uni, err := parcoach.Campaign(parcoach.CampaignOptions{
		Seeds: seedList, Seed: seed, Uniform: true, Workers: 8,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "uniform:  runs=%d coverage=%d bugs=%d\n", uni.Runs, uni.Coverage, len(uni.Bugs))

	workers := []int{1, 4, 8}
	var camp *parcoach.CampaignReport
	var canonical string
	for _, w := range workers {
		r, err := parcoach.Campaign(parcoach.CampaignOptions{
			Seeds: seedList, Seed: seed, Budget: uni.Runs, NoMutate: true, Workers: w,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		if canonical == "" {
			camp, canonical = r, r.Format()
		} else if r.Format() != canonical {
			fmt.Fprintf(os.Stderr, "benchjson: campaign report differs at workers=%d — determinism contract broken\n", w)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "campaign: workers=%d runs=%d coverage=%d bugs=%d\n", w, r.Runs, r.Coverage, len(r.Bugs))
	}

	rep := campaignReport{
		Go:             runtime.Version(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		Seeds:          nseeds,
		CampaignSeed:   seed,
		UniformBudget:  uni.Budget / nseeds,
		Uniform:        campaignSide{Runs: uni.Runs, Coverage: uni.Coverage, Bugs: len(uni.Bugs), Trajectory: uni.Trajectory},
		Campaign:       campaignSide{Runs: camp.Runs, Coverage: camp.Coverage, Bugs: len(camp.Bugs), Trajectory: camp.Trajectory},
		BugSetsEqual:   slicesEqual(uni.Bugs, camp.Bugs),
		WorkersChecked: workers,
	}
	for _, p := range camp.Trajectory {
		if p.Coverage >= uni.Coverage {
			rep.BudgetToMatch = p.Runs
			rep.Speedup = float64(uni.Runs) / float64(p.Runs)
			break
		}
	}
	if rep.BudgetToMatch > 0 {
		fmt.Fprintf(os.Stderr, "campaign matches sweep coverage at %d of %d runs (%.2fx less budget)\n",
			rep.BudgetToMatch, uni.Runs, rep.Speedup)
	} else {
		fmt.Fprintln(os.Stderr, "campaign did not reach sweep coverage within budget")
	}
	writeJSON(out, rep)
	fmt.Fprintf(os.Stderr, "benchjson: wrote %s\n", out)
}

func slicesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func writeJSON(path string, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
}
