// EPCC demo: run the synthetic mixed-mode micro-benchmark suite at
// several process/thread configurations (the suite's usual sweep) and
// show the MPI thread-level enforcement rejecting a funneled-level run
// whose kernels communicate from worker threads.
package main

import (
	"fmt"
	"log"

	"parcoach"
	"parcoach/internal/mpi"
	"parcoach/internal/workload"
)

func main() {
	w := workload.EPCC(workload.ScaleA, workload.BugNone)
	prog, err := parcoach.Compile("epcc.mh", w.Source, parcoach.Options{Mode: parcoach.ModeFull})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("EPCC suite: %d functions, %d warnings\n", prog.Stats.Functions, len(prog.Warnings()))

	for _, cfg := range []struct{ np, threads int }{{2, 1}, {2, 2}, {2, 4}} {
		res := prog.Run(parcoach.RunOptions{Procs: cfg.np, Threads: cfg.threads})
		status := "ok"
		if res.Err != nil {
			status = res.Err.Error()
		}
		fmt.Printf("np=%d threads=%d: collectives=%d p2p=%d [%s]\n",
			cfg.np, cfg.threads, res.Stats.Collectives, res.Stats.P2PMessages, status)
	}

	// The multiple-pingpong kernel sends from worker threads: running the
	// suite under MPI_THREAD_FUNNELED is a usage error the runtime reports.
	res := prog.Run(parcoach.RunOptions{Procs: 2, Threads: 4, Level: mpi.ThreadFunneled})
	fmt.Printf("\nunder MPI_THREAD_FUNNELED: %v\n", res.Err)
}
