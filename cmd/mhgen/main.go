// Command mhgen emits, replays and evaluates seeded random MiniHybrid
// programs (internal/mhgen) against the differential static/dynamic
// validation harness (internal/mhgen/diff).
//
//	mhgen -seed 42                   # print the program for seed 42
//	mhgen -seed 42 -eval             # compile+run it, print the verdict row
//	mhgen -seed 0 -n 200 -eval       # sweep 200 seeds, print the matrix
//	mhgen -bug early-return -eval    # force a bug class (with -seed/-size)
//	mhgen -corpus testdata/fuzz      # (re)write the go-fuzz seed corpus
//	mhgen -n 200 -eval -shards 4 -shard 1   # CI matrix: shard 1 of 4
//
// Sharding partitions the seed range round-robin (every shards-th
// seed), so each shard still covers every bug class; the union of all
// shards' per-seed verdict lines is exactly the unsharded matrix.
//
// The campaign subcommand runs a coverage-guided exploration campaign
// (internal/campaign) over a corpus of consecutive seeds, spending the
// schedule budget where coverage still grows:
//
//	mhgen campaign -n 200 -budget 3200            # adaptive campaign
//	mhgen campaign -n 200 -budget 3200 -uniform   # even-spread baseline
//	mhgen campaign -n 50 -json                    # structured report
//
// A fixed -campaign-seed renders byte-identically at any -workers
// count. Campaigns checkpoint and resume: -checkpoint FILE writes the
// resumable state after every -checkpoint-every rounds (atomically, so
// a kill mid-write keeps the previous checkpoint), and -resume
// continues from it — the resumed report is byte-identical to an
// uninterrupted run of the same options. -halt-after-round N stops
// deterministically after round N (the kill switch the smoke scripts
// use to prove that identity).
//
// On a soundness violation the failing program is greedily reduced
// before printing, and the exit status is 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"parcoach"
	"parcoach/internal/mhgen"
	"parcoach/internal/mhgen/diff"
	"parcoach/internal/workload"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "campaign" {
		runCampaign(os.Args[2:])
		return
	}
	var (
		seed    = flag.Uint64("seed", 0, "generation seed")
		n       = flag.Uint64("n", 1, "number of consecutive seeds to process")
		bugName = flag.String("bug", "", "force a bug class (none, multithreaded-collective, ...); default derives from the seed")
		size    = flag.String("size", "", "force a size (small, medium); default derives from the seed")
		eval    = flag.Bool("eval", false, "compile and run under the differential harness")
		workers = flag.Int("workers", 0, "-eval's exploration worker-pool width (0 = GOMAXPROCS)")
		corpus  = flag.String("corpus", "", "write the fuzz seed corpus under this directory and exit")
		shards  = flag.Int("shards", 1, "partition the seed range round-robin into this many shards (CI matrix jobs)")
		shard   = flag.Int("shard", 0, "process this shard of the partition (0-based)")
	)
	flag.Parse()

	if *shards < 1 || *shard < 0 || *shard >= *shards {
		fmt.Fprintf(os.Stderr, "mhgen: invalid -shard %d of -shards %d\n", *shard, *shards)
		os.Exit(2)
	}

	if *corpus != "" {
		if err := writeCorpus(*corpus); err != nil {
			fmt.Fprintln(os.Stderr, "mhgen:", err)
			os.Exit(1)
		}
		return
	}

	var m diff.Matrix
	failed := false
	for _, s := range mhgen.ShardSeeds(*seed, *n, *shards, *shard) {
		gp, err := generate(s, *bugName, *size)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mhgen:", err)
			os.Exit(2)
		}
		if !*eval {
			fmt.Printf("// %s (procs=%d threads=%d bugline=%d)\n%s", gp.Name, gp.Procs, gp.Threads, gp.BugLine, gp.Source)
			continue
		}
		row := diff.Evaluate(gp, diff.Options{Workers: *workers})
		m.Rows = append(m.Rows, row)
		if len(row.Violations) > 0 {
			failed = true
			fmt.Printf("%s\nreduced repro:\n%s\n", row, diff.ReduceFailure(gp, diff.Options{Workers: *workers}))
		}
	}
	if *eval {
		if *n > 1 {
			fmt.Print(m.Format())
		} else if len(m.Rows) == 1 && len(m.Rows[0].Violations) == 0 {
			// Violating rows were already printed with their reduced repro.
			fmt.Println(m.Rows[0])
		}
	}
	if failed {
		os.Exit(1)
	}
}

// runCampaign is the campaign subcommand: a coverage-guided (or, with
// -uniform, evenly spread) exploration campaign over consecutive seeds.
func runCampaign(args []string) {
	fs := flag.NewFlagSet("mhgen campaign", flag.ExitOnError)
	var (
		start   = fs.Uint64("seed", 0, "first generation seed of the corpus")
		n       = fs.Uint64("n", 50, "number of consecutive seeds in the corpus")
		budget  = fs.Int("budget", 0, "total schedule budget (0 = 16 per seed)")
		cseed   = fs.Uint64("campaign-seed", 1, "campaign schedule and mutation seed")
		workers = fs.Int("workers", 0, "worker-pool width (0 = GOMAXPROCS)")
		uniform = fs.Bool("uniform", false, "spread the budget evenly instead of by coverage yield (the linear-sweep baseline; no mutation)")
		asJSON  = fs.Bool("json", false, "emit the structured report as JSON")

		checkpoint = fs.String("checkpoint", "", "write resumable campaign state to this file")
		ckEvery    = fs.Int("checkpoint-every", 0, "rounds between checkpoint writes (0 = every round)")
		resume     = fs.Bool("resume", false, "continue from the -checkpoint file instead of starting fresh")
		haltAfter  = fs.Int("halt-after-round", 0, "checkpoint and stop after this round (0 = run to completion; requires -checkpoint)")
		runTimeout = fs.Duration("timeout", 0, "per-run wall-clock watchdog (0 = none)")
	)
	fs.Parse(args)
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "mhgen campaign: unexpected argument %q\n", fs.Arg(0))
		os.Exit(2)
	}
	if *checkpoint == "" && (*resume || *haltAfter > 0 || *ckEvery > 0) {
		fmt.Fprintln(os.Stderr, "mhgen campaign: -resume/-halt-after-round/-checkpoint-every require -checkpoint")
		os.Exit(2)
	}
	seeds := make([]uint64, *n)
	for i := range seeds {
		seeds[i] = *start + uint64(i)
	}
	resumeFrom := ""
	if *resume {
		resumeFrom = *checkpoint
	}
	rep, err := parcoach.Campaign(parcoach.CampaignOptions{
		Seeds:           seeds,
		Budget:          *budget,
		Seed:            *cseed,
		Workers:         *workers,
		Uniform:         *uniform,
		RunTimeout:      *runTimeout,
		Checkpoint:      *checkpoint,
		CheckpointEvery: *ckEvery,
		Resume:          resumeFrom,
		HaltAfterRound:  *haltAfter,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mhgen campaign:", err)
		os.Exit(1)
	}
	if *asJSON {
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "mhgen campaign:", err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", out)
		return
	}
	fmt.Print(rep.Format())
}

func generate(seed uint64, bugName, size string) (*mhgen.Program, error) {
	if bugName == "" && size == "" {
		return mhgen.FromSeed(seed), nil
	}
	derived := mhgen.FromSeed(seed)
	cfg := mhgen.Config{Seed: seed, Bug: derived.Bug, Size: derived.Size}
	if bugName != "" {
		found := bugName == "none"
		if found {
			cfg.Bug = workload.BugNone
		}
		for _, b := range workload.AllBugs {
			if b.String() == bugName {
				cfg.Bug, found = b, true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown bug class %q", bugName)
		}
	}
	switch size {
	case "":
	case "small":
		cfg.Size = mhgen.SizeSmall
	case "medium":
		cfg.Size = mhgen.SizeMedium
	default:
		return nil, fmt.Errorf("unknown size %q", size)
	}
	return mhgen.Generate(cfg), nil
}

// writeCorpus (re)generates the committed go-fuzz seed corpus: three
// generated programs per bug class (clean included) for the program-text
// targets, a few malformed inputs for the parser target, and a spread of
// generation seeds for the seed-driven value-oracle target.
func writeCorpus(dir string) error {
	bugs := append([]workload.Bug{workload.BugNone}, workload.AllBugs...)
	var entries []struct{ name, src string }
	for _, bug := range bugs {
		for seed := uint64(0); seed < 3; seed++ {
			sz := mhgen.SizeSmall
			if seed == 2 {
				sz = mhgen.SizeMedium
			}
			gp := mhgen.Generate(mhgen.Config{Seed: seed, Bug: bug, Size: sz})
			entries = append(entries, struct{ name, src string }{
				fmt.Sprintf("gen-%s-%d", bug, seed), gp.Source,
			})
		}
	}
	for _, target := range []string{"FuzzParse", "FuzzCompile", "FuzzExplore"} {
		for _, e := range entries {
			if err := writeSeed(dir, target, e.name, e.src); err != nil {
				return err
			}
		}
	}
	for seed := uint64(0); seed < 16; seed++ {
		name := fmt.Sprintf("seed-%d", seed)
		body := fmt.Sprintf("go test fuzz v1\nuint64(%d)\n", seed)
		if err := writeRaw(dir, "FuzzValueOracle", name, body); err != nil {
			return err
		}
	}
	malformed := []struct{ name, src string }{
		{"truncated", "func main() { MPI_Init()\nparallel { single {"},
		{"stray-else", "func main() { } else { barrier }"},
		{"bad-mpi", "func main() { MPI_Bcast() MPI_Reduce(x) }"},
		{"deep-parens", "func main() { var x = ((((((1)))))) }"},
		{"empty", ""},
	}
	for _, m := range malformed {
		if err := writeSeed(dir, "FuzzParse", "bad-"+m.name, m.src); err != nil {
			return err
		}
	}
	return nil
}

func writeSeed(dir, target, name, src string) error {
	return writeRaw(dir, target, name, "go test fuzz v1\nstring("+strconv.Quote(src)+")\n")
}

func writeRaw(dir, target, name, body string) error {
	path := filepath.Join(dir, target, name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(body), 0o644)
}
