package interp

import (
	"errors"
	"testing"

	"parcoach/internal/monitor"
)

// TestDeadlockReportLines pins the full deadlock report of the default
// schedule for one case of every wait the runtimes can park in, with
// the analyzers' lines: each wait's detail ("(call #N)" of a
// collective, a CC announcement, a team barrier's phase and arrivals, a
// critical section's name, a send and a recv) and the world's and the
// verifier's context ("collective round N", "CC round N", a finalized
// rank and a rank that exited without MPI_Finalize).
func TestDeadlockReportLines(t *testing.T) {
	for _, tc := range []struct {
		name       string
		procs      int
		instrument bool
		src        string
		want       string
	}{
		{"collective", 3, false, `
func main() {
	MPI_Init()
	var x = 1
	MPI_Allreduce(x, x, sum)
	if rank() < 2 {
		MPI_Bcast(x)
	}
	MPI_Finalize()
}`, `deadlock: every live thread is blocked
  MPI collective: rank 0: MPI_Bcast (call #2) at t.mh:7:3
  MPI collective: rank 1: MPI_Bcast (call #2) at t.mh:7:3
  rank 2: finalized
  collective round 1: rank 0 in MPI_Bcast, rank 1 in MPI_Bcast`},
		{"cc and recv", 3, true, `
func main() {
	MPI_Init()
	var x = 0
	if rank() == 2 {
		MPI_Recv(x, 0, 5)
	}
	if rank() < 2 {
		MPI_Barrier()
	}
	MPI_Finalize()
}`, `deadlock: every live thread is blocked
  CC check: rank 0 announced MPI_Barrier at t.mh:9:3
  CC check: rank 1 announced MPI_Barrier at t.mh:9:3
  MPI recv: rank 2: MPI_Recv from 0 tag 5 at t.mh:6:3
  CC round 0: rank 0 announced MPI_Barrier, rank 1 announced MPI_Barrier`},
		{"team barrier", 2, false, `
func main() {
	MPI_Init()
	if rank() == 0 {
		parallel num_threads(2) {
			barrier
			if tid() == 1 {
				MPI_Barrier()
			}
			barrier
		}
	}
	MPI_Finalize()
}`, `deadlock: every live thread is blocked
  MPI collective: rank 0: MPI_Barrier (call #1) at t.mh:8:5
  team barrier: team2.t0 waiting at barrier (phase 1, 1/2 arrived)
  rank 1: finalized
  collective round 0: rank 0 in MPI_Barrier`},
		{"critical", 2, false, `
func main() {
	MPI_Init()
	var v = 0
	if rank() == 0 {
		parallel num_threads(4) {
			if tid() == 0 {
				critical {
					MPI_Barrier()
				}
			}
			if tid() == 1 {
				critical(upd) {
					MPI_Recv(v, 1, 3)
				}
			}
			if tid() == 2 {
				critical {
					print(1)
				}
			}
			if tid() == 3 {
				critical(upd) {
					print(2)
				}
			}
		}
	}
	MPI_Finalize()
}`, `deadlock: every live thread is blocked
  MPI collective: rank 0: MPI_Barrier (call #1) at t.mh:9:6
  MPI recv: rank 0: MPI_Recv from 1 tag 3 at t.mh:14:6
  critical section: team2.t2 waiting for critical(<anonymous>)
  critical section: team2.t3 waiting for critical(upd)
  rank 1: finalized
  collective round 0: rank 0 in MPI_Barrier`},
		{"send and recv", 2, false, `
func main() {
	MPI_Init()
	var v = 0
	if rank() == 0 {
		MPI_Send(7, 1, 1)
	} else {
		MPI_Recv(v, 0, 2)
	}
	MPI_Finalize()
}`, `deadlock: every live thread is blocked
  MPI recv: rank 1: MPI_Recv from 0 tag 2 at t.mh:8:3
  MPI send: rank 0: MPI_Send to 1 tag 1 at t.mh:6:3`},
		{"exit without finalize", 2, false, `
func main() {
	MPI_Init()
	if rank() == 1 {
		return 0
	}
	MPI_Barrier()
	MPI_Finalize()
}`, `deadlock: every live thread is blocked
  MPI collective: rank 0: MPI_Barrier (call #1) at t.mh:7:2
  rank 1: exited without MPI_Finalize
  collective round 0: rank 0 in MPI_Barrier`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := compile(t, tc.src)
			if tc.instrument {
				prog = instrumented(t, tc.src)
			}
			res := Run(prog, Options{Procs: tc.procs})
			if !errors.As(res.Err, new(*monitor.DeadlockError)) {
				t.Fatalf("run ended with %v, want the deadlock report", res.Err)
			}
			if got := res.Err.Error(); got != tc.want {
				t.Errorf("report\n%s\nwant\n%s", got, tc.want)
			}
		})
	}
}
