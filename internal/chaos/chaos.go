// Package chaos is the deterministic fault-injection harness behind the
// robustness test suite. Production code marks interesting boundaries
// with chaos.Here("tag"); in normal operation the mark is a single
// atomic pointer load of nil — no allocation, no branch taken. A test
// arms an injector with a seeded plan mapping tags to faults (panic,
// sleep, cancel), and the tagged sites start misbehaving on an exact,
// reproducible cadence: the Nth arrival at a tag panics, every arrival
// at another tag sleeps, and so on.
//
// Determinism is the point. Faults trigger by per-tag arrival count,
// not by time or randomness, so a failing chaos run replays exactly
// under -race and in CI, and a fault-free replay of the same workload
// is byte-identical to a run with no injector armed at all.
package chaos

import (
	"sync"
	"sync/atomic"
	"time"
)

// Action is what an armed rule does when it triggers.
type Action int

const (
	// ActPanic panics at the site with a chaos-identifiable value, to be
	// caught by the quarantine boundary under test.
	ActPanic Action = iota
	// ActSleep blocks the site for Rule.Sleep, simulating a wedged or
	// slow run for watchdog tests.
	ActSleep
	// ActCancel invokes Rule.Cancel, typically a context.CancelFunc, so
	// a test can cancel exactly at a tagged point mid-flight.
	ActCancel
)

// PanicValue is the value chaos panics with, so quarantine tests can
// assert the caught panic really came from the injector.
type PanicValue struct {
	Tag string
	N   uint64 // which arrival triggered (1-based)
}

// Rule describes one tag's fault plan.
type Rule struct {
	// Every triggers on arrivals where count%Every == 0 (1 = every
	// arrival). Zero or negative means only the arrival numbered First.
	Every int
	// First is the earliest arrival (1-based) that may trigger; earlier
	// arrivals pass through untouched. Zero means 1.
	First int
	// Action selects the fault.
	Action Action
	// Sleep is ActSleep's duration.
	Sleep time.Duration
	// Cancel is ActCancel's target; nil makes ActCancel a no-op.
	Cancel func()
}

// Config maps site tags to rules. Tags with no rule are unaffected.
type Config map[string]Rule

// injector is the armed state; reached via one atomic pointer so the
// disarmed fast path costs a single nil check.
type injector struct {
	rules  Config
	mu     sync.Mutex
	counts map[string]uint64
	fired  map[string]uint64
}

var current atomic.Pointer[injector]

// Arm installs cfg and returns the disarm function. Tests must disarm
// (defer the returned func) before the next test arms its own plan;
// arming while armed replaces the previous plan.
func Arm(cfg Config) func() {
	inj := &injector{
		rules:  cfg,
		counts: make(map[string]uint64),
		fired:  make(map[string]uint64),
	}
	current.Store(inj)
	return func() { current.CompareAndSwap(inj, nil) }
}

// Fired reports how many times the rule for tag has triggered since its
// injector was armed. Zero when disarmed or the tag never fired.
func Fired(tag string) uint64 {
	inj := current.Load()
	if inj == nil {
		return 0
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.fired[tag]
}

// Here marks a fault-injection site. Disarmed (the production state) it
// is a single atomic load. Armed, it counts the arrival and triggers the
// tag's rule on the configured cadence — which may panic, so callers sit
// inside the quarantine boundary they are exercising.
func Here(tag string) {
	inj := current.Load()
	if inj == nil {
		return
	}
	inj.arrive(tag)
}

func (inj *injector) arrive(tag string) {
	rule, ok := inj.rules[tag]
	if !ok {
		return
	}
	inj.mu.Lock()
	inj.counts[tag]++
	n := inj.counts[tag]
	first := uint64(1)
	if rule.First > 0 {
		first = uint64(rule.First)
	}
	trigger := false
	if n >= first {
		if rule.Every > 0 {
			trigger = (n-first)%uint64(rule.Every) == 0
		} else {
			trigger = n == first
		}
	}
	if trigger {
		inj.fired[tag]++
	}
	inj.mu.Unlock()
	if !trigger {
		return
	}
	switch rule.Action {
	case ActPanic:
		panic(PanicValue{Tag: tag, N: n})
	case ActSleep:
		time.Sleep(rule.Sleep)
	case ActCancel:
		if rule.Cancel != nil {
			rule.Cancel()
		}
	}
}
