package verifier

import (
	"fmt"
	"strings"

	"parcoach/internal/mpi"
)

// ValueCheck classifies value-oracle failures: the data-level verdicts
// the paper's ordering checks (CC, PhaseCount) cannot see — a round
// whose collective *sequence* matches on every process can still carry
// divergent roots, disagreeing reduction operators, or a source buffer
// torn by a concurrent write while the call was in flight.
type ValueCheck int

// Value-oracle failure classes.
const (
	// ValueWrongRoot: ranks named different roots for a rooted collective.
	ValueWrongRoot ValueCheck = iota
	// ValueWrongOp: ranks named different reduction operators.
	ValueWrongOp
	// ValueTornBuffer: a source buffer changed between the call and the
	// match — the collective read no consistent version of it.
	ValueTornBuffer
	// ValueResultMismatch: a delivered result differs from the oracle's
	// independent recomputation over the recorded contributions.
	ValueResultMismatch
)

func (k ValueCheck) String() string {
	switch k {
	case ValueWrongRoot:
		return "wrong-root"
	case ValueWrongOp:
		return "wrong-op"
	case ValueTornBuffer:
		return "torn-buffer"
	case ValueResultMismatch:
		return "result-mismatch"
	}
	return "value-error"
}

// ValueError is a value-oracle failure: a collective round whose data —
// roots, reduction operators, source buffers or delivered results — is
// inconsistent even though the collective sequence matched.
type ValueError struct {
	Check ValueCheck
	Round int
	Op    string
	Loc   string
	Msg   string
}

func (e *ValueError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "value verification error (%s) in %s round %d", e.Check, e.Op, e.Round)
	if e.Loc != "" {
		fmt.Fprintf(&b, " at %s", e.Loc)
	}
	fmt.Fprintf(&b, ": %s", e.Msg)
	return b.String()
}

// AttachWorld installs the value oracle as w's collective round
// observer: every matched round is audited — arguments cross-checked,
// source buffers re-read, results recomputed — before any participant
// resumes. The observer survives the world's Reset, so a pooled
// (world, verifier) pair stays wired across exploration runs.
func (v *Verifier) AttachWorld(w *mpi.World) {
	w.SetRoundObserver(v.checkRound)
}

// checkRound is the value oracle. It runs on the round's last arriving
// thread with every other participant of the round still parked: calls
// carries each rank's arguments, its call-time source snapshot, the live
// buffer the snapshot was taken from, and the results the matcher
// computed. The matcher has already validated that the operation kinds
// agree.
func (v *Verifier) checkRound(round int, calls []*mpi.CollCall) error {
	v.valueChecks++
	op := calls[0].Op

	// Divergent roots on a rooted collective: on a real MPI this delivers
	// different data to different ranks (or corrupts memory) instead of
	// failing fast.
	switch op {
	case mpi.OpBcast, mpi.OpReduce, mpi.OpGather, mpi.OpScatter:
		if c := disagree(calls, func(c *mpi.CollCall) int64 { return int64(c.Root) }); c != nil {
			return &ValueError{
				Check: ValueWrongRoot, Round: round, Op: op.String(), Loc: c.Loc,
				Msg: fmt.Sprintf("ranks disagree on the root: %s", describeArgs(calls, func(c *mpi.CollCall) string {
					return fmt.Sprintf("root %d", c.Root)
				})),
			}
		}
	}

	// Divergent reduction operators: each rank would combine with its own
	// operator — the results ranks observe depend on match order and can
	// silently disagree.
	switch op {
	case mpi.OpReduce, mpi.OpAllreduce, mpi.OpScan:
		if c := disagree(calls, func(c *mpi.CollCall) int64 { return int64(c.Red) }); c != nil {
			return &ValueError{
				Check: ValueWrongOp, Round: round, Op: op.String(), Loc: c.Loc,
				Msg: fmt.Sprintf("ranks disagree on the reduction op: %s", describeArgs(calls, func(c *mpi.CollCall) string {
					return c.Red.String()
				})),
			}
		}
	}

	// Torn source buffers: re-read each contributing live buffer and
	// compare against the call-time snapshot. A difference means the
	// buffer was written while its collective was in flight — the match
	// consumed no consistent read of the source. Only the buffers the
	// round actually consumed are audited (Scatter reads the root's).
	for _, c := range calls {
		if c.Live == nil || (op == mpi.OpScatter && c.Rank != c.Root) {
			continue
		}
		for j := range c.Vector {
			if j >= len(c.Live) {
				break
			}
			if now := c.Live[j]; now != c.Vector[j] {
				return &ValueError{
					Check: ValueTornBuffer, Round: round, Op: op.String(), Loc: c.Loc,
					Msg: fmt.Sprintf("rank %d's source buffer was written while the collective was in flight: element %d read %d at call time but holds %d at match time",
						c.Rank, j, c.Vector[j], now),
				}
			}
		}
	}

	// Result check: recompute what the round should have delivered from
	// the recorded contributions and compare against the matcher's
	// outputs (the CHECK_VALUE pattern — the delivered result must equal
	// a recomputation over consistently-read inputs).
	return v.checkResults(round, calls)
}

// checkResults recomputes the round's expected results independently of
// the matcher and flags any delivered value that differs.
func (v *Verifier) checkResults(round int, calls []*mpi.CollCall) error {
	n := len(calls)
	op := calls[0].Op
	red := calls[0].Red
	root := calls[0].Root
	mismatch := func(c *mpi.CollCall, got, want string) error {
		return &ValueError{
			Check: ValueResultMismatch, Round: round, Op: op.String(), Loc: c.Loc,
			Msg: fmt.Sprintf("rank %d received %s, oracle recomputed %s", c.Rank, got, want),
		}
	}
	checkValue := func(c *mpi.CollCall, want int64) error {
		if c.OutValue != want {
			return mismatch(c, fmt.Sprint(c.OutValue), fmt.Sprint(want))
		}
		return nil
	}
	checkVector := func(c *mpi.CollCall, want []int64) error {
		if len(c.OutVector) != len(want) {
			return mismatch(c, fmt.Sprint(c.OutVector), fmt.Sprint(want))
		}
		for i := range want {
			if c.OutVector[i] != want[i] {
				return mismatch(c, fmt.Sprint(c.OutVector), fmt.Sprint(want))
			}
		}
		return nil
	}

	switch op {
	case mpi.OpBarrier:
		// synchronization only: nothing delivered
	case mpi.OpBcast:
		for _, c := range calls {
			if err := checkValue(c, calls[root].Value); err != nil {
				return err
			}
		}
	case mpi.OpReduce, mpi.OpAllreduce:
		acc := calls[0].Value
		for r := 1; r < n; r++ {
			acc = red.Apply(acc, calls[r].Value)
		}
		for r, c := range calls {
			want := acc
			if op == mpi.OpReduce && r != root {
				want = c.Value
			}
			if err := checkValue(c, want); err != nil {
				return err
			}
		}
	case mpi.OpScan:
		acc := int64(0)
		for r, c := range calls {
			if r == 0 {
				acc = c.Value
			} else {
				acc = red.Apply(acc, c.Value)
			}
			if err := checkValue(c, acc); err != nil {
				return err
			}
		}
	case mpi.OpGather, mpi.OpAllgather:
		vec := make([]int64, n)
		for r, c := range calls {
			vec[r] = c.Value
		}
		for r, c := range calls {
			if op == mpi.OpGather && r != root {
				continue
			}
			if err := checkVector(c, vec); err != nil {
				return err
			}
		}
	case mpi.OpScatter:
		src := calls[root].Vector
		for r, c := range calls {
			want := int64(0)
			if r < len(src) {
				want = src[r]
			}
			if err := checkValue(c, want); err != nil {
				return err
			}
		}
	case mpi.OpAlltoall:
		for r, c := range calls {
			want := make([]int64, n)
			for s, other := range calls {
				if r < len(other.Vector) {
					want[s] = other.Vector[r]
				}
			}
			if err := checkVector(c, want); err != nil {
				return err
			}
		}
	}
	return nil
}

// disagree returns the first call whose projected argument differs from
// rank 0's, or nil when all ranks agree.
func disagree(calls []*mpi.CollCall, proj func(*mpi.CollCall) int64) *mpi.CollCall {
	for _, c := range calls[1:] {
		if proj(c) != proj(calls[0]) {
			return c
		}
	}
	return nil
}

// describeArgs renders each rank's view of a divergent argument.
func describeArgs(calls []*mpi.CollCall, show func(*mpi.CollCall) string) string {
	parts := make([]string, len(calls))
	for i, c := range calls {
		s := fmt.Sprintf("rank %d: %s", c.Rank, show(c))
		if c.Loc != "" {
			s += " at " + c.Loc
		}
		parts[i] = s
	}
	return strings.Join(parts, ", ")
}
