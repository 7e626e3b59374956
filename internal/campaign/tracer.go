package campaign

import (
	"parcoach/internal/monitor"
	"parcoach/internal/sched"
)

// maxBranchRecord bounds how many branch points one run retains for
// coverage and splicing. Runs that branch beyond it (spinning
// schedules) still execute to their outcome; the tail is just not
// recorded — consistent with the event-trace limit below it.
const maxBranchRecord = 1 << 14

// tracer is the campaign's run scheduler: a sched.Recorder that follows
// an optional spliced prefix, continues with a seeded uniform random
// tail and records the run's event trace and its first maxBranchRecord
// branch points. It adds what only the coverage signal needs: the
// positional state signature of each recorded branch point.
type tracer struct {
	sched.Recorder
	sigs []uint64
}

func newTracer() *tracer {
	return &tracer{Recorder: sched.Recorder{Keep: maxBranchRecord, Events: new(monitor.EventTrace)}}
}

// reset rearms the tracer for a new run: follow prefix, then sample
// with the given seed.
func (t *tracer) reset(prefix []sched.ThreadID, seed int64) {
	t.Reset(prefix)
	t.Tail = sched.NewRandom(seed)
	t.sigs = t.sigs[:0]
}

// Next records the signature of each branch point the recorder keeps.
func (t *tracer) Next(c sched.Choice) sched.ThreadID {
	if len(c.Enabled) > 1 && len(t.sigs) < t.Keep {
		t.sigs = append(t.sigs, c.Sig())
	}
	return t.Recorder.Next(c)
}
