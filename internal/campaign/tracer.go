package campaign

import (
	"math/rand"

	"parcoach/internal/monitor"
	"parcoach/internal/sched"
)

// maxBranchRecord bounds how many branch points one run retains for
// coverage and splicing. Runs that branch beyond it (spinning
// schedules) still execute to their outcome; the tail is just not
// recorded — consistent with the event-trace limit below it.
const maxBranchRecord = 1 << 14

// branchRec is one recorded branch point: the positional state
// signature, the runnable set, and the pick.
type branchRec struct {
	sig     uint64
	enabled []sched.ThreadID
	chosen  sched.ThreadID
}

// tracer is the campaign's run scheduler: it follows an optional
// spliced prefix at branch points, continues with a seeded uniform
// random policy, and records what the coverage signal and the splicer
// need — every branch point (sig, enabled set, pick) and, via
// TraceSource, the run's happens-before event trace.
type tracer struct {
	prefix   []sched.ThreadID
	rng      *rand.Rand
	branches []branchRec
	nbranch  int // branch points seen, including beyond maxBranchRecord
	diverged bool
	events   monitor.EventTrace

	enabledBuf []sched.ThreadID
}

// reset rearms the tracer for a new run: follow prefix, then sample
// with the given seed.
func (t *tracer) reset(prefix []sched.ThreadID, seed int64) {
	t.prefix = prefix
	t.rng = rand.New(rand.NewSource(seed))
	t.branches = t.branches[:0]
	t.enabledBuf = t.enabledBuf[:0]
	t.nbranch = 0
	t.diverged = false
	t.events.Reset()
}

// EventTrace implements sched.TraceSource: the controller records one
// tagged event per decision.
func (t *tracer) EventTrace() *monitor.EventTrace { return &t.events }

// Next follows the prefix at branch points, records the branch, and
// picks uniformly beyond it.
func (t *tracer) Next(c sched.Choice) sched.ThreadID {
	if len(c.Enabled) == 1 {
		return c.Enabled[0]
	}
	pos := t.nbranch
	t.nbranch++
	var pick sched.ThreadID
	if pos < len(t.prefix) {
		var ok bool
		if pick, ok = sched.Follow(c.Enabled, t.prefix[pos]); !ok {
			t.diverged = true
		}
	} else {
		pick = c.Enabled[t.rng.Intn(len(c.Enabled))]
	}
	if pos < maxBranchRecord {
		off := len(t.enabledBuf)
		t.enabledBuf = append(t.enabledBuf, c.Enabled...)
		t.branches = append(t.branches, branchRec{
			sig:     c.Sig(),
			enabled: t.enabledBuf[off:len(t.enabledBuf):len(t.enabledBuf)],
			chosen:  pick,
		})
	}
	return pick
}

// trace returns the chosen thread at every recorded branch point — the
// replay-token payload of this run.
func (t *tracer) trace() []sched.ThreadID {
	out := make([]sched.ThreadID, len(t.branches))
	for i := range t.branches {
		out[i] = t.branches[i].chosen
	}
	return out
}
