// NAS-MZ demo: generate the synthetic BT-MZ benchmark, show the
// correct-but-unprovable warnings its load-balancing guards produce, and
// demonstrate that the selectively instrumented run validates them at a
// cost of a handful of CC checks rather than aborting.
package main

import (
	"fmt"
	"log"

	"parcoach"
	"parcoach/internal/workload"
)

func main() {
	w := workload.BTMZ(workload.ScaleA, workload.BugNone)
	prog, err := parcoach.Compile("bt-mz.mh", w.Source, parcoach.Options{Mode: parcoach.ModeFull})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("BT-MZ: %d functions, %d statements, %d CFG nodes\n",
		prog.Stats.Functions, prog.Stats.Statements, prog.Stats.CFGNodes)
	fmt.Printf("compile: frontend=%v backend=%v analysis=%v instrument=%v\n",
		prog.Timing.Frontend, prog.Timing.Backend, prog.Timing.Analysis, prog.Timing.Instrument)

	fmt.Println("\nwarnings (the statically unprovable load-balancing guards):")
	for _, d := range prog.Warnings() {
		fmt.Println(" ", d)
	}
	fmt.Printf("checks generated: %+v\n", prog.Stats.Checks)

	res := prog.Run(parcoach.RunOptions{Procs: 4, Threads: 4})
	if res.Err != nil {
		log.Fatalf("instrumented BT-MZ must pass: %v", res.Err)
	}
	fmt.Printf("\nrun: collectives=%d p2p=%d barriers=%d cc-checks=%d → all warnings validated\n",
		res.Stats.Collectives, res.Stats.P2PMessages, res.Stats.Barriers, res.Stats.CCChecks)

	// The same benchmark with a seeded early-return bug aborts instead.
	bad := workload.BTMZ(workload.ScaleA, workload.BugEarlyReturn)
	prog2, err := parcoach.Compile("bt-mz-bug.mh", bad.Source, parcoach.Options{Mode: parcoach.ModeFull})
	if err != nil {
		log.Fatal(err)
	}
	res2 := prog2.Run(parcoach.RunOptions{Procs: 4, Threads: 4})
	fmt.Printf("\nseeded early-return variant: %v\n", res2.Err)
}
