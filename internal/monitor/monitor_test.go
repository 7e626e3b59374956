package monitor

import (
	"errors"
	"strings"
	"testing"
)

// fakeSched is a SchedHook test double. It logs the transitions the
// monitor reports, and its Resume runs onResume once: the other threads
// that run while the waiting one is suspended.
type fakeSched struct {
	log      []string
	onResume func()
}

func (f *fakeSched) HolderParked() any               { f.log = append(f.log, "parked"); return f }
func (f *fakeSched) WaiterWoken(any)                 { f.log = append(f.log, "woken") }
func (f *fakeSched) ReleaseAll(bool)                 { f.log = append(f.log, "released") }
func (f *fakeSched) Go(fn func())                    { fn() }
func (f *fakeSched) Drive(func(any, []byte), func()) {}

func (f *fakeSched) Resume(any) {
	f.log = append(f.log, "resume")
	if fn := f.onResume; fn != nil {
		f.onResume = nil
		fn()
	}
}

// newMonitor returns a monitor whose controller is a fakeSched.
func newMonitor() (*Monitor, *fakeSched) {
	m, f := New(), new(fakeSched)
	m.SetSched(f)
	return m, f
}

func TestWakeBeforeAwait(t *testing.T) {
	m, _ := newMonitor()
	w := m.NewWaiter("test", func() string { return "w1" })
	m.Wake(w)
	if err := w.Await(); err != nil {
		t.Errorf("Await after wake = %v", err)
	}
}

// TestAwaitBlocksUntilWake: Await suspends in the controller's Resume
// and returns what ended the wait while it was suspended: nil for a
// wake, the cause for an abort.
func TestAwaitBlocksUntilWake(t *testing.T) {
	m, f := newMonitor()
	w := m.NewWaiter("test", func() string { return "w1" })
	f.onResume = func() { m.Wake(w) }
	if err := w.Await(); err != nil {
		t.Errorf("Await = %v", err)
	}
	if got, want := strings.Join(f.log, " "), "parked resume woken"; got != want {
		t.Errorf("transitions %q, want %q", got, want)
	}

	w = m.NewWaiter("test", func() string { return "w2" })
	boom := errors.New("boom")
	f.onResume = func() { m.Interrupt(boom) }
	if err := w.Await(); err != boom {
		t.Errorf("Await interrupted while suspended = %v, want boom", err)
	}

	// An Interrupt lands while the thread is suspended, then a thread of
	// the run that has not reached its next check wakes the wait: the
	// wake does nothing, and the wait ends with the cause.
	m, f = newMonitor()
	w = m.NewWaiter("test", func() string { return "w3" })
	f.onResume = func() {
		m.Interrupt(boom)
		m.Wake(w)
	}
	if err := w.Await(); err != boom {
		t.Errorf("Await woken after an Interrupt = %v, want boom", err)
	}
	if got, want := strings.Join(f.log, " "), "parked resume released"; got != want {
		t.Errorf("transitions %q, want %q: a wake after the abort must not reach the controller", got, want)
	}
}

func TestAbortWakesAllWithError(t *testing.T) {
	m, _ := newMonitor()
	boom := errors.New("boom")
	var ws []*Waiter
	for i := 0; i < 2; i++ {
		ws = append(ws, m.NewWaiter("test", func() string { return "w" }))
	}
	m.Abort(boom)
	for _, w := range ws {
		if err := w.Await(); err != boom {
			t.Errorf("Await after abort = %v, want boom", err)
		}
	}
	if !m.Aborted() || m.Err() != boom {
		t.Error("abort state not recorded")
	}
}

func TestFirstAbortWins(t *testing.T) {
	m, _ := newMonitor()
	e1, e2 := errors.New("first"), errors.New("second")
	m.Abort(e1)
	m.Abort(e2)
	if m.Err() != e1 {
		t.Errorf("Err = %v, want first", m.Err())
	}
}

func TestWaiterAfterAbortWakesImmediately(t *testing.T) {
	m, f := newMonitor()
	boom := errors.New("boom")
	m.Abort(boom)
	w := m.NewWaiter("test", func() string { return "late" })
	if err := w.Await(); err != boom {
		t.Errorf("late waiter error = %v", err)
	}
	if got, want := strings.Join(f.log, " "), "released resume"; got != want {
		t.Errorf("transitions %q, want %q: a late waiter must not park", got, want)
	}
}

func TestWakeLockedIdempotent(t *testing.T) {
	m, f := newMonitor()
	w := m.NewWaiter("test", func() string { return "w" })
	m.Wake(w)
	m.Wake(w) // second wake must be a no-op
	if err := w.Await(); err != nil {
		t.Errorf("Await = %v", err)
	}
	if got, want := strings.Join(f.log, " "), "parked woken resume"; got != want {
		t.Errorf("transitions %q, want %q: a second wake must not reach the controller", got, want)
	}
}
