package sched

import (
	"fmt"
	"sort"
	"strings"
)

// Round is the blocking kernel's one rendezvous: n participants, by
// index, each arrive once per round. Every arrival but the last parks in
// Wait; the last runs the owner's completion (validate, compute,
// observe) and calls Release, which wakes the rest and opens the next
// round. A second arrival at one index is the owner's error, so owners
// check Arrived before Join. A round keeps no results: a woken
// participant reads its own only when it next runs, so the owner
// delivers them into storage each participant owns.
type Round struct {
	ctl      *Controller
	reason   string
	describe func(i int) string
	// slots holds every slot built so far; the round uses the first n.
	slots         []roundSlot
	n, count, seq int
}

// roundSlot is one participant's arrival: gate is its parked thread, nil
// for the last arrival. detail, built with the slot, describes the wait
// to the deadlock report, so a wait allocates nothing.
type roundSlot struct {
	arrived bool
	gate    *Gate
	detail  func() string
}

// NewRound returns a round of n participants whose parked waits ctl
// reports under reason, participant i's described by describe(i).
func NewRound(ctl *Controller, n int, reason string, describe func(i int) string) *Round {
	r := &Round{ctl: ctl, reason: reason, describe: describe}
	r.Reset(n)
	return r
}

// Reset rearms the round for n participants at sequence 0, keeping the
// slots it has built. Call it only when no participant is parked.
func (r *Round) Reset(n int) {
	for i := len(r.slots); i < n; i++ {
		r.slots = append(r.slots, roundSlot{detail: func() string { return r.describe(i) }})
	}
	for i := range r.slots {
		r.slots[i].arrived, r.slots[i].gate = false, nil
	}
	r.n, r.count, r.seq = n, 0, 0
}

// Seq returns the number of completed rounds.
func (r *Round) Seq() int { return r.seq }

// Count returns the number of arrivals in the current round.
func (r *Round) Count() int { return r.count }

// Arrived reports whether participant i is in the current round.
func (r *Round) Arrived(i int) bool { return r.slots[i].arrived }

// Join enters participant i into the current round. The last arrival
// gets last=true at once; every other one parks until Release, and gets
// nil, or until the run aborts, and gets the cause.
func (r *Round) Join(i int) (last bool, err error) {
	s := &r.slots[i]
	s.arrived = true
	if r.count++; r.count == r.n {
		return true, nil
	}
	s.gate = r.ctl.Running()
	return false, r.ctl.Wait(r.reason, s.detail)
}

// Release completes the round: it wakes every parked participant and
// opens the next round.
func (r *Round) Release() {
	for i := range r.slots[:r.n] {
		if g := r.slots[i].gate; g != nil {
			r.ctl.Wake(g)
		}
		r.slots[i].arrived, r.slots[i].gate = false, nil
	}
	r.count = 0
	r.seq++
}

// Pending renders an open round's deadlock-analyzer line, "<name> round
// N: " and the sorted parts of the participants that have arrived, or
// nothing when none has.
func (r *Round) Pending(name string, part func(i int) string) []string {
	if r.count == 0 {
		return nil
	}
	var parts []string
	for i, s := range r.slots[:r.n] {
		if s.arrived {
			parts = append(parts, part(i))
		}
	}
	sort.Strings(parts)
	return []string{fmt.Sprintf("%s round %d: %s", name, r.seq, strings.Join(parts, ", "))}
}
