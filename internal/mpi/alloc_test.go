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

// TestP2PAllocations: a point-to-point message whose sender or receiver
// blocks allocates nothing. It was 3 while each blocked call allocated
// its pending record and its detail closure, and each match re-sliced
// its queue so the next append found no spare capacity.
func TestP2PAllocations(t *testing.T) {
	w := newWorld(t, 2, ThreadMultiple)
	allocs := func(msgs int) float64 {
		return testing.AllocsPerRun(20, func() {
			w.Reset(nil)
			err := w.Run(func(p *Proc) error {
				if err := p.Init(1); err != nil {
					return err
				}
				for i := 0; i < msgs; i++ {
					var err error
					if p.Rank() == 0 {
						err = p.Send(1, int64(i), 1, 7, "")
					} else {
						var v int64
						if v, err = p.Recv(1, 0, 7, ""); err == nil && v != int64(i) {
							t.Fatalf("message %d carried %d", i, v)
						}
					}
					if err != nil {
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
	const msgs = 64
	perMsg := (allocs(msgs) - allocs(0)) / msgs
	t.Logf("%.2f allocations per message from rank 0 to rank 1", perMsg)
	if perMsg > 0 {
		t.Errorf("a point-to-point message allocates %.2f times, want 0", perMsg)
	}
}
