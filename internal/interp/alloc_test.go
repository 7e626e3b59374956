package interp

import (
	"testing"

	"parcoach/internal/parser"
	"parcoach/internal/sched"
)

// The allocation pins below keep the serialized round-robin hot path at
// its post-pooling budget. Two programs, two budgets:
//
//   - a statement-heavy loop, where the cost model is per executed
//     statement: frame arenas, the waiter/gate pools and the
//     incremental scheduler signature brought this from ~0.7 to about
//     0.001 objects per step;
//   - a region-heavy loop, where the residual cost is per parallel
//     region instance (the fork/join closures): about three objects per
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
// on a fork/join-heavy program (a team fork, nowait single and join
// barrier per iteration on every rank).
func TestSerializedRegionAllocations(t *testing.T) {
	const iters = 200
	const ranks = 2
	perRun, steps := measureAllocs(t, `
func main() {
	MPI_Init()
	var x = 0
	for i = 0 .. 200 {
		parallel num_threads(2) {
			single nowait { x = x + 1 }
		}
	}
	MPI_Allreduce(x, x, sum)
	MPI_Finalize()
}
`)
	perRegion := perRun / float64(iters*ranks)
	t.Logf("allocs/run=%.0f steps=%d allocs/region=%.2f", perRun, steps, perRegion)
	const ceiling = 6.0 // the fork/join closures; was ~3x higher pre-pooling
	if perRegion > ceiling {
		t.Errorf("serialized fork/join path allocates %.2f objects/region (%.0f over %d regions); ceiling %.0f",
			perRegion, perRun, iters*ranks, ceiling)
	}
}
