package mpi

import "testing"

// TestCollectiveRoundAllocations pins what one scalar collective round
// allocates: nothing. Each rank's call record comes from the world's
// free list, the round's slots and their deadlock-report details are
// built once, computing the round takes no scratch, and the wait itself
// allocates nothing. It was 3 while each call allocated its record and
// each wait its detail closure.
func TestCollectiveRoundAllocations(t *testing.T) {
	w := newWorld(t, 2, ThreadMultiple)
	allocs := func(rounds int) float64 {
		return testing.AllocsPerRun(20, func() {
			w.Reset(nil)
			err := w.Run(func(p *Proc) error {
				if err := p.Init(1); err != nil {
					return err
				}
				for i := 0; i < rounds; i++ {
					if _, _, err := p.Collective(1, OpAllreduce, RedSum, 0, 1, nil, ""); err != nil {
						return err
					}
				}
				return p.Finalize(1)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	const rounds = 64
	perRound := (allocs(rounds) - allocs(0)) / rounds
	t.Logf("%.2f allocations per round of 2 ranks", perRound)
	if perRound > 0 {
		t.Errorf("a collective round of 2 ranks allocates %.2f times, want 0", perRound)
	}
}
