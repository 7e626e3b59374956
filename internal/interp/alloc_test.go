package interp

import (
	"fmt"
	"testing"

	"parcoach/internal/parser"
	"parcoach/internal/sched"
)

// The allocation pins below keep the serialized round-robin hot path at
// its post-pooling budget. Two programs, two budgets:
//
//   - a statement-heavy loop, where the cost model is per executed
//     statement: frame recycling, the waiter/gate pools and the
//     incremental scheduler signature brought this from ~0.7 to about
//     0.001 objects per step;
//   - a region-heavy loop, where the residual cost is per parallel
//     region instance (the fork/join closures): about two objects per
//     region, invariant in the body size.
//
// Both run through a Session with warm-up runs first, the way schedule
// exploration uses the interpreter.

func measureAllocs(t *testing.T, src string) (perRun float64, steps int64) {
	t.Helper()
	prog := parser.MustParse("alloc.mh", src)
	sess := NewSession(prog, Options{Procs: 2, Threads: 2, MaxSteps: 1_000_000})
	for i := 0; i < 3; i++ { // warm the pools
		res := sess.Run(sched.NewRoundRobin())
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		steps = res.Stats.Steps
	}
	perRun = testing.AllocsPerRun(10, func() {
		if res := sess.Run(sched.NewRoundRobin()); res.Err != nil {
			t.Fatal(res.Err)
		}
	})
	return perRun, steps
}

// TestSerializedStepAllocations pins the per-statement budget on a
// statement-heavy program (no parallel regions in the loop).
func TestSerializedStepAllocations(t *testing.T) {
	perRun, steps := measureAllocs(t, `
func bump(v) {
	return v + 1
}

func main() {
	MPI_Init()
	var x = 0
	for i = 0 .. 2000 {
		x = bump(x)
		if x > 1000 {
			x = 0
		}
	}
	MPI_Allreduce(x, x, sum)
	MPI_Finalize()
}
`)
	perStep := perRun / float64(steps)
	t.Logf("allocs/run=%.0f steps=%d allocs/step=%.4f", perRun, steps, perStep)
	const ceiling = 0.005 // was ~0.7 before the arena/pool work
	if perStep > ceiling {
		t.Errorf("serialized round-robin path allocates %.4f objects/step (%.0f over %d steps); ceiling %.2f",
			perStep, perRun, steps, ceiling)
	}
}

// TestSerializedRegionAllocations pins the per-region-instance budget
// on fork/join-heavy programs (a team fork, one nowait worksharing
// construct and the join barrier per iteration on every rank).
func TestSerializedRegionAllocations(t *testing.T) {
	const iters = 200
	const ranks = 2
	for _, tc := range []struct{ name, construct string }{
		{"single nowait", "single nowait { x = x + 1 }"},
		{"sections nowait", "sections nowait { section { x = x + 1 } section { x = x + 2 } }"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			perRun, steps := measureAllocs(t, fmt.Sprintf(`
func main() {
	MPI_Init()
	var x = 0
	for i = 0 .. %d {
		parallel num_threads(2) {
			%s
		}
	}
	MPI_Allreduce(x, x, sum)
	MPI_Finalize()
}
`, iters, tc.construct))
			perRegion := perRun / float64(iters*ranks)
			t.Logf("allocs/run=%.0f steps=%d allocs/region=%.2f", perRun, steps, perRegion)
			// The fork/join closures; was ~3x higher pre-pooling, and 3
			// while each barrier wait allocated its detail closure. Under
			// the race detector pooled run state is reallocated whenever
			// sync.Pool drops it (4.36 objects per single nowait region),
			// so that build keeps the earlier ceiling of 6.
			ceiling := 3.0
			if raceEnabled {
				ceiling = 6.0
			}
			if perRegion > ceiling {
				t.Errorf("serialized fork/join path allocates %.2f objects/region (%.0f over %d regions); ceiling %.0f",
					perRegion, perRun, iters*ranks, ceiling)
			}
		})
	}
}
