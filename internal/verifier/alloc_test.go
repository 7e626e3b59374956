package verifier

import (
	"testing"

	"parcoach/internal/mpi"
)

// TestCCRoundAllocations pins what one CC agreement of two ranks
// allocates: nothing. The announcements go into a rank-indexed slice,
// and the round's slots and their deadlock-report details are built
// once, so the wait allocates nothing either.
func TestCCRoundAllocations(t *testing.T) {
	w, v := world(t, 2)
	allocs := func(rounds int) float64 {
		return testing.AllocsPerRun(20, func() {
			w.Reset(nil)
			v.Reset()
			err := w.Run(func(p *mpi.Proc) error {
				if err := p.Init(1); err != nil {
					return err
				}
				for i := 0; i < rounds; i++ {
					if err := v.CC(p, "MPI_Allreduce", pos(1)); err != nil {
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
	t.Logf("%.2f allocations per CC round of 2 ranks", perRound)
	if perRound > 0 {
		t.Errorf("a CC round of 2 ranks allocates %.2f times, want 0", perRound)
	}
}
