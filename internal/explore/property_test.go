package explore

import (
	"testing"

	"parcoach/internal/interp"
	"parcoach/internal/parser"
	"parcoach/internal/sched"
)

// The programs below are the reason this package exists: each hides a
// deadlock that only manifests under a particular interleaving, so the
// single deterministic round-robin run reports "clean" while the bug is
// real. The property locked in here is that bounded exhaustive DFS
// finds the failing schedule — and that the schedule it prints replays
// to the identical outcome.

// scheduleOnlyBugs are hand-written programs whose failure needs a
// non-round-robin interleaving.
var scheduleOnlyBugs = []struct {
	name string
	src  string
	// outcome the DFS must find on some schedule.
	want interp.Outcome
}{
	{
		// Two threads race to elect the nowait-single winner; the winner
		// records its tid in shared state, and the collective afterwards
		// is guarded by it. A schedule where the ranks elect different
		// winners makes rank 1 skip the barrier and finalize while rank 0
		// blocks in it forever.
		name: "racing-single-winner",
		src: `
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
`,
		want: interp.OutcomeDeadlock,
	},
	{
		// The elected winner's tid picks the message tag; the receiver
		// only listens on tag 0. A schedule electing thread 1 on rank 0
		// leaves the send and the recv on unmatched tags — both ranks
		// block in point-to-point rendezvous forever.
		name: "racing-tag-mismatch",
		src: `
func main() {
	MPI_Init()
	if rank() == 0 {
		var tag = 0
		parallel num_threads(2) {
			single nowait { tag = tid() }
		}
		MPI_Send(7, 1, tag)
	} else {
		var got = 0
		MPI_Recv(got, 0, 0)
	}
	MPI_Finalize()
}
`,
		want: interp.OutcomeDeadlock,
	},
	{
		// A plain read races the nowait-single's write: whether the
		// reading thread observes flag==0 decides whether it joins the
		// barrier. Ranks whose schedules resolve the race differently
		// disagree on the barrier — one blocks, the other finalizes.
		name: "racing-flag-read",
		src: `
func main() {
	MPI_Init()
	var flag = 0
	var join = 0
	parallel num_threads(2) {
		single nowait { flag = 1 }
		if tid() == 1 {
			if flag == 0 {
				join = 1
			}
		}
	}
	if join == 1 {
		MPI_Barrier()
	}
	MPI_Finalize()
}
`,
		want: interp.OutcomeDeadlock,
	},
}

// TestDFSFindsScheduleOnlyBugs is the value-of-exploration property:
// for each program, the single round-robin schedule completes cleanly,
// and bounded exhaustive DFS finds an interleaving with the planted
// failure.
func TestDFSFindsScheduleOnlyBugs(t *testing.T) {
	for _, tc := range scheduleOnlyBugs {
		t.Run(tc.name, func(t *testing.T) {
			prog := parser.MustParse(tc.name+".mh", tc.src)

			rr := Explore(prog, Options{Strategy: StrategyRoundRobin, MaxSteps: 200_000})
			if rr.Schedules != 1 {
				t.Fatalf("round-robin ran %d schedules, want 1", rr.Schedules)
			}
			if !rr.Caught(interp.OutcomeClean) || rr.FirstFailure != nil {
				t.Fatalf("round-robin schedule should complete cleanly, got %+v", rr.Verdicts)
			}

			dfs := Explore(prog, Options{Strategy: StrategyDFS, Schedules: 4096, MaxSteps: 200_000})
			if !dfs.Caught(tc.want) {
				t.Fatalf("DFS over %d schedules (exhausted=%t) missed the %s; verdicts: %+v",
					dfs.Schedules, dfs.Exhausted, tc.want, dfs.Verdicts)
			}
			if dfs.FirstFailure == nil {
				t.Fatal("DFS found a failing outcome but no FirstFailure")
			}
			t.Logf("DFS: %d schedules, exhausted=%t, first failure at %d (%s)",
				dfs.Schedules, dfs.Exhausted, dfs.FirstFailure.Index, dfs.FirstFailure.Schedule)

			// The printed schedule must replay to the identical outcome —
			// that is the whole point of the token.
			replaySched, err := sched.Parse(dfs.FirstFailure.Schedule)
			if err != nil {
				t.Fatalf("failing schedule token does not parse: %v", err)
			}
			res := interp.NewSession(prog, interp.Options{
				Procs: 2, Threads: 2, MaxSteps: 200_000,
			}).Run(replaySched)
			if got := res.Outcome(); got != dfs.FirstFailure.Outcome {
				t.Fatalf("replay of %q = %v, want %v (err: %v)",
					dfs.FirstFailure.Schedule, got, dfs.FirstFailure.Outcome, res.Err)
			}
			if res.Err == nil || res.Err.Error() != dfs.FirstFailure.Err {
				t.Fatalf("replay error text differs:\n got: %v\nwant: %s", res.Err, dfs.FirstFailure.Err)
			}
		})
	}
}

// TestRoundRobinMissesWhatDFSFinds pins the asymmetry quantitatively:
// across the three programs, round-robin finds zero failures while DFS
// finds one in each — the committed evidence for the acceptance
// criterion that exploration detects bugs a single schedule misses.
func TestRoundRobinMissesWhatDFSFinds(t *testing.T) {
	rrFailures, dfsFailures := 0, 0
	for _, tc := range scheduleOnlyBugs {
		prog := parser.MustParse(tc.name+".mh", tc.src)
		if Explore(prog, Options{Strategy: StrategyRoundRobin, MaxSteps: 200_000}).FirstFailure != nil {
			rrFailures++
		}
		if Explore(prog, Options{Strategy: StrategyDFS, Schedules: 4096, MaxSteps: 200_000}).FirstFailure != nil {
			dfsFailures++
		}
	}
	if rrFailures != 0 {
		t.Errorf("round-robin found %d failures, want 0 (the bugs must be schedule-only)", rrFailures)
	}
	if dfsFailures != len(scheduleOnlyBugs) {
		t.Errorf("DFS found %d failures, want %d", dfsFailures, len(scheduleOnlyBugs))
	}
}
