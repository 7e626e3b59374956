package sched

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"parcoach/internal/leakcheck"
	"parcoach/internal/monitor"
)

// synth builds a Choice over the given enabled ids.
func synth(cur ThreadID, seq int64, ids ...ThreadID) Choice {
	return Choice{Enabled: ids, Cur: cur, Seq: seq}
}

// TestRoundRobinRotation: the reference scheduler rotates through the
// enabled set in id order, skipping disabled threads.
func TestRoundRobinRotation(t *testing.T) {
	s := NewRoundRobin()
	var got []ThreadID
	for i := int64(0); i < 6; i++ {
		got = append(got, s.Next(synth(-1, i, 0, 1, 2)))
	}
	want := []ThreadID{0, 1, 2, 0, 1, 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rotation = %v, want %v", got, want)
	}
	// Thread 1 drops out: the rotation continues over the remainder.
	if id := s.Next(synth(-1, 6, 0, 2)); id != 0 {
		t.Fatalf("after wrap with {0,2}: got %v, want 0", id)
	}
	if id := s.Next(synth(-1, 7, 0, 2)); id != 2 {
		t.Fatalf("next with {0,2}: got %v, want 2", id)
	}
}

// TestRoundRobinFairnessBound: over any run of decisions, an enabled
// thread waits at most len(enabled) decisions before running — the
// no-starvation bound the conformance suite pins.
func TestRoundRobinFairnessBound(t *testing.T) {
	s := NewRoundRobin()
	enabled := []ThreadID{0, 1, 2, 3}
	lastRun := map[ThreadID]int{}
	for i := 0; i < 100; i++ {
		id := s.Next(synth(-1, int64(i), enabled...))
		for _, e := range enabled {
			if e != id && i-lastRun[e] > len(enabled) {
				t.Fatalf("thread %v starved for %d decisions", e, i-lastRun[e])
			}
		}
		lastRun[id] = i
	}
}

// TestRandomSeedDeterminism: the same seed yields the same decision
// sequence; different seeds are allowed to differ (and do, for this
// sequence length).
func TestRandomSeedDeterminism(t *testing.T) {
	seq := func(seed int64) []ThreadID {
		s := NewRandom(seed)
		var out []ThreadID
		for i := int64(0); i < 64; i++ {
			out = append(out, s.Next(synth(-1, i, 0, 1, 2, 3)))
		}
		return out
	}
	if !reflect.DeepEqual(seq(7), seq(7)) {
		t.Fatal("same seed produced different schedules")
	}
	if reflect.DeepEqual(seq(7), seq(8)) {
		t.Fatal("different seeds produced identical 64-step schedules")
	}
}

// TestPCTPriorities: with depth 1 there are no priority change points,
// so PCT degenerates to strict priority scheduling — the same thread
// runs as long as the same set is enabled, and when it blocks the next
// priority takes over (and keeps running after the first returns,
// having been demoted never — priorities are static at depth 1).
func TestPCTPriorities(t *testing.T) {
	s := NewPCT(1, 1, 0)
	first := s.Next(synth(-1, 0, 0, 1, 2))
	for i := int64(1); i < 10; i++ {
		if got := s.Next(synth(first, i, 0, 1, 2)); got != first {
			t.Fatalf("decision %d: depth-1 PCT switched from %v to %v without a change point", i, first, got)
		}
	}
	// first blocks: a different thread must run.
	var rest []ThreadID
	for _, id := range []ThreadID{0, 1, 2} {
		if id != first {
			rest = append(rest, id)
		}
	}
	second := s.Next(synth(-1, 10, rest...))
	if second == first {
		t.Fatalf("blocked thread %v picked", first)
	}
	// first returns: it preempts again (it still has top priority).
	if got := s.Next(synth(second, 11, 0, 1, 2)); got != first {
		t.Fatalf("after unblock: got %v, want %v", got, first)
	}
}

// TestPCTDeterminism: same seed/depth, same schedule.
func TestPCTDeterminism(t *testing.T) {
	run := func() []ThreadID {
		s := NewPCT(42, 4, 0)
		var out []ThreadID
		for i := int64(0); i < 64; i++ {
			out = append(out, s.Next(synth(-1, i, 0, 1, 2, 3)))
		}
		return out
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Fatal("same PCT configuration produced different schedules")
	}
}

// TestReplayFollowsTrace: replay takes the recorded pick at branch
// points, passes through singleton choices without consuming trace, and
// flags divergence when the recorded pick is not enabled.
func TestReplayFollowsTrace(t *testing.T) {
	s := &Recorder{Prefix: []ThreadID{2, 1}}
	if got := s.Next(synth(-1, 0, 0, 1, 2)); got != 2 {
		t.Fatalf("branch 0: got %v, want 2", got)
	}
	if got := s.Next(synth(-1, 1, 1)); got != 1 {
		t.Fatalf("singleton choice: got %v, want 1", got)
	}
	if got := s.Next(synth(-1, 2, 0, 1)); got != 1 {
		t.Fatalf("branch 1: got %v, want 1", got)
	}
	// Past the trace: lowest enabled.
	if got := s.Next(synth(-1, 3, 0, 3)); got != 0 {
		t.Fatalf("past trace: got %v, want 0", got)
	}
	if s.Diverged() {
		t.Fatal("spurious divergence")
	}
	d := &Recorder{Prefix: []ThreadID{9}}
	d.Next(synth(-1, 0, 0, 1))
	if !d.Diverged() {
		t.Fatal("replay of a disabled thread must flag divergence")
	}
	// A run with fewer branch points than the trace has entries is also
	// a divergence: the recorded schedule never ran to completion, so a
	// "clean" result must not pass as a reproduction.
	short := &Recorder{Prefix: []ThreadID{0, 1, 0}}
	short.Next(synth(-1, 0, 0, 1))
	short.Next(synth(-1, 1, 0))
	if !short.Diverged() {
		t.Fatal("unconsumed trace entries must flag divergence")
	}
	exact := &Recorder{Prefix: []ThreadID{0}}
	exact.Next(synth(-1, 0, 0, 1))
	if exact.Diverged() {
		t.Fatal("fully consumed trace must not flag divergence")
	}
}

// TestRecorderBranches: the recorder logs exactly the multi-choice
// decisions, with enabled sets and picks, and its trace replays.
func TestRecorderBranches(t *testing.T) {
	r := &Recorder{Prefix: []ThreadID{1}, Keep: math.MaxInt}
	r.Next(synth(-1, 0, 0))       // singleton: not a branch
	r.Next(synth(-1, 1, 0, 1))    // branch 0: prefix says 1
	r.Next(synth(-1, 2, 0, 1, 2)) // branch 1: past prefix, default 0
	if len(r.Branches) != 2 {
		t.Fatalf("recorded %d branches, want 2", len(r.Branches))
	}
	if !reflect.DeepEqual(r.Trace(), []ThreadID{1, 0}) {
		t.Fatalf("trace = %v, want [1 0]", r.Trace())
	}
	if r.Branches[1].Enabled[2] != 2 {
		t.Fatalf("branch enabled set not recorded: %+v", r.Branches[1])
	}
}

// TestRecorderKeepBoundsRecording: Keep bounds how many branch points
// the recorder keeps, not how many it follows: the prefix is followed
// past the kept ones, and a divergence past them still counts.
func TestRecorderKeepBoundsRecording(t *testing.T) {
	r := &Recorder{Prefix: []ThreadID{1, 2, 1}, Keep: 1}
	for i, want := range []ThreadID{1, 2, 1, 0} {
		if got := r.Next(synth(-1, int64(i), 0, 1, 2)); got != want {
			t.Fatalf("branch %d: got %v, want %v", i, got, want)
		}
	}
	if !reflect.DeepEqual(r.Trace(), []ThreadID{1}) || len(r.Branches) != 1 {
		t.Fatalf("kept %d branch points (trace %v), want 1 ([1])", len(r.Branches), r.Trace())
	}
	if r.Diverged() {
		t.Fatal("a followed prefix past Keep flagged divergence")
	}
	r.Reset([]ThreadID{0, 9})
	r.Next(synth(-1, 0, 0, 1))
	r.Next(synth(-1, 1, 0, 1))
	if !r.Diverged() || len(r.Branches) != 1 {
		t.Fatalf("divergence past Keep: diverged %t with %d kept, want true with 1", r.Diverged(), len(r.Branches))
	}
	zero := &Recorder{Prefix: []ThreadID{1}}
	zero.Next(synth(-1, 0, 0, 1))
	zero.Next(synth(-1, 1, 0, 1))
	if len(zero.Branches) != 0 || len(zero.Trace()) != 0 {
		t.Fatalf("a zero Keep recorded %d branch points", len(zero.Branches))
	}
}

// countingTail picks the highest enabled id and counts its calls.
type countingTail struct{ calls int }

func (s *countingTail) Next(c Choice) ThreadID {
	s.calls++
	return c.Enabled[len(c.Enabled)-1]
}

// TestRecorderTailPastPrefix: the tail picks at exactly the branch
// points past the prefix — never at a singleton decision, never while
// the prefix lasts.
func TestRecorderTailPastPrefix(t *testing.T) {
	tail := new(countingTail)
	r := &Recorder{Prefix: []ThreadID{0}, Tail: tail, Keep: math.MaxInt}
	picks := []ThreadID{
		r.Next(synth(-1, 0, 0, 1)), // branch 0: prefix
		r.Next(synth(-1, 1, 1)),    // singleton
		r.Next(synth(-1, 2, 0, 1)), // branch 1: tail
		r.Next(synth(-1, 3, 0)),    // singleton
		r.Next(synth(-1, 4, 0, 2)), // branch 2: tail
	}
	if want := []ThreadID{0, 1, 1, 0, 2}; !reflect.DeepEqual(picks, want) {
		t.Fatalf("picks %v, want %v", picks, want)
	}
	if tail.calls != 2 {
		t.Fatalf("tail consulted %d times, want 2 (the branch points past the prefix)", tail.calls)
	}
	if !reflect.DeepEqual(r.Trace(), []ThreadID{0, 1, 2}) {
		t.Fatalf("trace %v, want [0 1 2]: the tail's picks are recorded", r.Trace())
	}
}

// TestRecorderDivergesOnUnconsumedPrefix: a run that passes fewer
// branch points than the prefix holds diverged, whether or not the
// recorder records.
func TestRecorderDivergesOnUnconsumedPrefix(t *testing.T) {
	for _, keep := range []int{0, math.MaxInt} {
		r := &Recorder{Keep: keep}
		r.Reset([]ThreadID{0, 1})
		r.Next(synth(-1, 0, 0, 1))
		r.Next(synth(-1, 1, 1))
		if !r.Diverged() {
			t.Errorf("keep %d: an unconsumed prefix entry must flag divergence", keep)
		}
		r.Next(synth(-1, 2, 0, 1))
		if r.Diverged() {
			t.Errorf("keep %d: a consumed prefix flagged divergence", keep)
		}
	}
}

// TestTokenRoundTrip: every token form parses back into a scheduler of
// the right shape, and malformed tokens are rejected.
func TestTokenRoundTrip(t *testing.T) {
	cases := []struct {
		token string
		want  any
	}{
		{RoundRobinToken, &RoundRobin{}},
		{RandomToken(123), &Random{}},
		{PCTToken(5, 3), &PCT{}},
		{FormatTrace([]ThreadID{0, 2, 1}), &Recorder{}},
		{FormatTrace(nil), &Recorder{}},
	}
	for _, tc := range cases {
		s, err := Parse(tc.token)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.token, err)
			continue
		}
		if reflect.TypeOf(s) != reflect.TypeOf(tc.want) {
			t.Errorf("Parse(%q) = %T, want %T", tc.token, s, tc.want)
		}
	}
	if s, err := Parse("trace:0.2.1"); err != nil {
		t.Errorf("trace token: %v", err)
	} else if !reflect.DeepEqual(s.(*Recorder).Prefix, []ThreadID{0, 2, 1}) {
		t.Errorf("trace payload = %v", s.(*Recorder).Prefix)
	}
	for _, bad := range []string{"", "nope", "rand:x", "pct:1", "pct:a:b", "trace:1.x"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted a malformed token", bad)
		}
	}
}

// TestTokenReplayEquivalence: a random schedule and its parsed token
// produce identical decision sequences — the substance of "the printed
// seed replays exactly".
func TestTokenReplayEquivalence(t *testing.T) {
	orig := NewRandom(99)
	parsed, err := Parse(RandomToken(99))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 128; i++ {
		a := orig.Next(synth(-1, i, 0, 1, 2, 3, 4))
		b := parsed.Next(synth(-1, i, 0, 1, 2, 3, 4))
		if a != b {
			t.Fatalf("decision %d: original %v, replayed %v", i, a, b)
		}
	}
}

// TestQuantumKeepsThenRotates: the default scheduler keeps the thread
// that yielded for quantum consecutive decisions, then rotates like
// RoundRobin; a thread that parks or exits (Cur -1) rotates at once.
func TestQuantumKeepsThenRotates(t *testing.T) {
	s := NewController(nil).sched
	if id := s.Next(synth(-1, 0, 0, 1, 2)); id != 0 {
		t.Fatalf("first pick %v, want 0", id)
	}
	for i := 0; i < quantum; i++ {
		if id := s.Next(synth(0, int64(i+1), 0, 1, 2)); id != 0 {
			t.Fatalf("decision %d of the quantum picked %v, want the running thread 0", i, id)
		}
	}
	if id := s.Next(synth(0, quantum+1, 0, 1, 2)); id != 1 {
		t.Fatalf("after the quantum: got %v, want the rotation to 1", id)
	}
	if id := s.Next(synth(-1, quantum+2, 0, 2)); id != 2 {
		t.Fatalf("after a park: got %v, want the rotation to 2", id)
	}
	if id := s.Next(synth(2, quantum+3, 0, 2)); id != 2 {
		t.Fatalf("a fresh pick's next decision: got %v, want 2 kept", id)
	}
}

// TestCoroPoolCap: the idle list keeps at most maxIdleCoros coroutines;
// put stops the surplus, whose goroutines exit.
func TestCoroPoolCap(t *testing.T) {
	leakcheck.Check(t)
	cos := make([]*coro, maxIdleCoros+16)
	for i := range cos {
		cos[i] = getCoro(func() {})
		cos[i].resume()
	}
	for _, co := range cos {
		co.put()
	}
	coroIdle.Lock()
	n := len(coroIdle.list)
	coroIdle.Unlock()
	if n != maxIdleCoros {
		t.Fatalf("idle list holds %d coroutines, want the cap %d", n, maxIdleCoros)
	}
}

// TestReleaseAllLeavesRunningHolder: the release of an abort from
// outside the run (Interrupt: cancellation, a watchdog) must not touch
// the token holder's access buffer, which the still-running holder
// keeps appending to — under -race that would be a data race — while an
// Abort on the holder's own thread flushes its final accesses into the
// trace.
func TestReleaseAllLeavesRunningHolder(t *testing.T) {
	boom := errors.New("boom")
	for _, holder := range []bool{true, false} {
		rec := &Recorder{Events: new(monitor.EventTrace)}
		rec.Reset(nil)
		c := NewController(rec)
		c.Go(func() {
			g := c.Running()
			g.Access(1, monitor.AccWrite)
			if holder {
				c.Abort(boom)
				return
			}
			released := make(chan struct{})
			go func() {
				c.Interrupt(boom)
				close(released)
			}()
			g.Access(2, monitor.AccWrite)
			<-released
		})
		c.Drive()
		want := 0
		if holder {
			want = 1
		}
		if got := len(rec.Events.Accesses(rec.Events.Len() - 1)); got != want {
			t.Errorf("holder=%t: last event has %d accesses, want %d", holder, got, want)
		}
		if c.Err() != boom {
			t.Errorf("holder=%t: run error %v, want boom", holder, c.Err())
		}
	}
}

// TestDriveInterleavesRoundRobin: three threads started with Go and run
// by Drive under RoundRobin take turns one statement at a time in id
// order, and an Abort mid-run drains every thread: the aborting thread
// runs to its end, then each remaining one, lowest id first.
func TestDriveInterleavesRoundRobin(t *testing.T) {
	run := func(abortAt int) string {
		c := NewController(NewRoundRobin())
		var log []string
		for id := 0; id < 3; id++ {
			c.Go(func() {
				g := c.Running()
				if g.ID() != ThreadID(id) {
					t.Errorf("thread %d runs with gate %d", id, g.ID())
				}
				for step := 0; step < 3; step++ {
					log = append(log, fmt.Sprintf("%d.%d", id, step))
					if len(log) == abortAt {
						c.Abort(errors.New("stop"))
					}
					g.Yield(step)
				}
				log = append(log, fmt.Sprintf("%d.exit", id))
			})
		}
		c.Drive()
		return strings.Join(log, " ")
	}
	if got, want := run(0), "0.0 1.0 2.0 0.1 1.1 2.1 0.2 1.2 2.2 0.exit 1.exit 2.exit"; got != want {
		t.Errorf("round-robin interleaving:\n got %s\nwant %s", got, want)
	}
	if got, want := run(4), "0.0 1.0 2.0 0.1 0.2 0.exit 1.1 1.2 1.exit 2.1 2.2 2.exit"; got != want {
		t.Errorf("drain after Abort:\n got %s\nwant %s", got, want)
	}
}

// TestDriveStalledRun: a run not aborted whose remaining thread parks
// with nobody to wake it is deadlocked. Drive builds the report exactly
// once, while the thread is still live, and aborts the run with it;
// then Drive resumes the parked thread, whose wait ends with the report.
func TestDriveStalledRun(t *testing.T) {
	c := NewController(nil)
	var log []string
	c.AddAnalyzer(func() []string {
		log = append(log, fmt.Sprintf("deadlocked with %d live", c.Live()))
		return nil
	})
	c.Go(func() {
		err := c.Wait("test wait", func() string { return "stalled" })
		log = append(log, fmt.Sprintf("resumed: %v", err))
	})
	c.Drive()
	want := "deadlocked with 1 live, resumed: deadlock: every live thread is blocked\n  test wait: stalled"
	if got := strings.Join(log, ", "); got != want {
		t.Fatalf("deadlocked run: %q, want %q", got, want)
	}
}
