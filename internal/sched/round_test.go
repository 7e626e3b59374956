package sched

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"parcoach/internal/monitor"
)

// joinAll runs one thread per participant of r, each joining rounds
// times; the last arrival of each round logs it and releases the rest.
func joinAll(t *testing.T, c *Controller, r *Round, n, rounds int) []string {
	t.Helper()
	var log []string
	for i := range n {
		c.Go(func() {
			for range rounds {
				if r.Arrived(i) {
					t.Errorf("participant %d arrived twice in round %d", i, r.Seq())
				}
				last, err := r.Join(i)
				if err != nil {
					t.Errorf("participant %d: %v", i, err)
					return
				}
				if last {
					log = append(log, fmt.Sprintf("round %d completed by %d with %d arrived", r.Seq(), i, r.Count()))
					r.Release()
				}
			}
		})
	}
	c.Drive()
	if c.Err() != nil {
		t.Fatalf("run error %v", c.Err())
	}
	return log
}

// TestRoundJoinRelease: every arrival but the last parks, the last one
// sees the full count and releases the rest, and the sequence counts
// the completed rounds.
func TestRoundJoinRelease(t *testing.T) {
	c := NewController(NewRoundRobin())
	r := NewRound(c, 3, "test round", func(i int) string { return fmt.Sprint(i) })
	log := joinAll(t, c, r, 3, 2)
	want := "round 0 completed by 2 with 3 arrived, round 1 completed by 1 with 3 arrived"
	if got := strings.Join(log, ", "); got != want {
		t.Errorf("rounds %q, want %q", got, want)
	}
	if r.Seq() != 2 || r.Count() != 0 {
		t.Errorf("after two rounds: Seq %d, Count %d; want 2, 0", r.Seq(), r.Count())
	}
	for i := range 3 {
		if r.Arrived(i) {
			t.Errorf("participant %d still arrived after the release", i)
		}
	}
}

// TestRoundResetGrows: Reset to a larger n rearms the round at sequence
// 0 with a slot per participant, each with its own detail, and the
// round completes only once all of them have arrived.
func TestRoundResetGrows(t *testing.T) {
	c := NewController(NewRoundRobin())
	r := NewRound(c, 3, "test round", func(i int) string { return fmt.Sprintf("p%d", i) })
	joinAll(t, c, r, 3, 2)
	c.Reset(NewRoundRobin())
	r.Reset(5)
	if r.Seq() != 0 || r.Count() != 0 {
		t.Fatalf("after Reset: Seq %d, Count %d; want 0, 0", r.Seq(), r.Count())
	}
	log := joinAll(t, c, r, 5, 1)
	if want := "round 0 completed by 4 with 5 arrived"; strings.Join(log, ", ") != want {
		t.Errorf("rounds %q, want %q", log, want)
	}
	// Every slot reports its own participant when parked.
	c.Reset(NewRoundRobin())
	r.Reset(5)
	for i := range 4 {
		c.Go(func() { _, _ = r.Join(i) })
	}
	c.Drive()
	for i := range 4 {
		if want := fmt.Sprintf("  test round: p%d\n", i); c.Err() == nil || !strings.Contains(c.Err().Error()+"\n", want) {
			t.Errorf("report %v lacks %q", c.Err(), want)
		}
	}
}

// TestRoundParkedDetailInReport: a round that can never complete ends
// in the deadlock report with each parked participant's detail and the
// owner's Pending line; an abort ends every parked Join with the cause.
func TestRoundParkedDetailInReport(t *testing.T) {
	c := NewController(NewRoundRobin())
	var r *Round
	r = NewRound(c, 3, "test round", func(i int) string {
		return fmt.Sprintf("p%d waiting (round %d, %d/3 arrived)", i, r.Seq(), r.Count())
	})
	c.AddAnalyzer(func() []string {
		return r.Pending("test", func(i int) string { return fmt.Sprintf("p%d in", i) })
	})
	errs := make([]error, 3)
	for _, i := range []int{2, 0} {
		c.Go(func() { _, errs[i] = r.Join(i) })
	}
	c.Drive()
	want := "deadlock: every live thread is blocked\n" +
		"  test round: p0 waiting (round 0, 2/3 arrived)\n" +
		"  test round: p2 waiting (round 0, 2/3 arrived)\n" +
		"  test round 0: p0 in, p2 in"
	if c.Err() == nil || c.Err().Error() != want {
		t.Errorf("report\n%v\nwant\n%s", c.Err(), want)
	}
	for _, i := range []int{0, 2} {
		var d *monitor.DeadlockError
		if !errors.As(errs[i], &d) {
			t.Errorf("participant %d: Join ended with %v, want the deadlock report", i, errs[i])
		}
	}
}
