package explore

// BenchRacerSrc is the property-suite racing-single-winner program: a
// schedule-only deadlock (round-robin runs clean; the bug needs a
// particular nowait-single election) and the reference workload the
// exploration benchmarks share.
const BenchRacerSrc = `
func main() {
	MPI_Init()
	var winner = 0
	parallel num_threads(2) {
		single nowait { winner = tid() }
	}
	if winner == 0 {
		MPI_Barrier()
	}
	MPI_Finalize()
}
`
