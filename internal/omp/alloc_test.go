package omp

import "testing"

// TestBarrierAllocations pins what one team barrier of two threads
// allocates: nothing. The team's round keeps its slots and their
// deadlock-report details across phases, and across the regions of a
// recycled team.
func TestBarrierAllocations(t *testing.T) {
	rt, _ := start(t, 2, FirstArrival)
	allocs := func(rounds int) float64 {
		return testing.AllocsPerRun(20, func() {
			rt.ctl.Reset(nil)
			rt.Reset()
			err := parallel(rt, rt.InitialThread(), 2, func(th *Thread) error {
				for i := 0; i < rounds; i++ {
					if err := th.Barrier(); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	const rounds = 64
	perRound := (allocs(rounds) - allocs(0)) / rounds
	t.Logf("%.2f allocations per barrier of 2 threads", perRound)
	if perRound > 0 {
		t.Errorf("a team barrier of 2 threads allocates %.2f times, want 0", perRound)
	}
}
