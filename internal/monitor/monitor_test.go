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

func (f *fakeSched) HolderParked(any)                   { f.log = append(f.log, "parked") }
func (f *fakeSched) WaiterWoken(any)                    { f.log = append(f.log, "woken") }
func (f *fakeSched) HolderExited()                      { f.log = append(f.log, "exited") }
func (f *fakeSched) ReleaseAll(bool)                    { f.log = append(f.log, "released") }
func (f *fakeSched) Go(fn func())                       { fn() }
func (f *fakeSched) Drive(func(any, []byte), func(int)) {}

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
	m.ThreadStarted()
	m.ThreadStarted()
	m.Lock()
	w := m.NewWaiterLocked("test", func() string { return "w1" })
	m.WakeLocked(w)
	m.Unlock()
	if err := w.Await(); err != nil {
		t.Errorf("Await after wake = %v", err)
	}
}

// TestAwaitBlocksUntilWake: Await suspends in the controller's Resume
// and returns what the wake or the abort that ended the wait wrote
// while it was suspended.
func TestAwaitBlocksUntilWake(t *testing.T) {
	m, f := newMonitor()
	m.ThreadStarted()
	m.ThreadStarted()
	m.Lock()
	w := m.NewWaiterLocked("test", func() string { return "w1" })
	m.Unlock()
	f.onResume = func() {
		m.Lock()
		m.WakeLocked(w)
		m.Unlock()
	}
	if err := w.Await(); err != nil {
		t.Errorf("Await = %v", err)
	}
	if got, want := strings.Join(f.log, " "), "parked resume woken"; got != want {
		t.Errorf("transitions %q, want %q", got, want)
	}

	m.Lock()
	w = m.NewWaiterLocked("test", func() string { return "w2" })
	m.Unlock()
	boom := errors.New("boom")
	f.onResume = func() { m.Interrupt(boom) }
	if err := w.Await(); err != boom {
		t.Errorf("Await interrupted while suspended = %v, want boom", err)
	}
}

func TestAbortWakesAllWithError(t *testing.T) {
	m, _ := newMonitor()
	for i := 0; i < 3; i++ {
		m.ThreadStarted()
	}
	boom := errors.New("boom")
	var ws []*Waiter
	m.Lock()
	for i := 0; i < 2; i++ {
		ws = append(ws, m.NewWaiterLocked("test", func() string { return "w" }))
	}
	m.Unlock()
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
	m.ThreadStarted()
	boom := errors.New("boom")
	m.Abort(boom)
	m.Lock()
	w := m.NewWaiterLocked("test", func() string { return "late" })
	m.Unlock()
	if err := w.Await(); err != boom {
		t.Errorf("late waiter error = %v", err)
	}
	if got, want := strings.Join(f.log, " "), "released resume"; got != want {
		t.Errorf("transitions %q, want %q: a late waiter must not park", got, want)
	}
}

func TestQuiescenceDetectsAllBlocked(t *testing.T) {
	m, _ := newMonitor()
	m.ThreadStarted()
	m.ThreadStarted()
	var ws []*Waiter
	m.Lock()
	for i := 0; i < 2; i++ {
		ws = append(ws, m.NewWaiterLocked("test wait", func() string { return "thread blocked forever" }))
	}
	m.Unlock()
	for _, w := range ws {
		err := w.Await()
		var d *DeadlockError
		if !errors.As(err, &d) {
			t.Fatalf("want DeadlockError, got %v", err)
		}
		if !strings.Contains(d.Error(), "thread blocked forever") {
			t.Errorf("report must include waiter details: %v", d)
		}
	}
}

func TestQuiescenceOnThreadExit(t *testing.T) {
	m, f := newMonitor()
	m.ThreadStarted() // blocker
	m.ThreadStarted() // exiter
	m.Lock()
	w := m.NewWaiterLocked("MPI collective", func() string { return "rank 0: MPI_Barrier" })
	m.Unlock()
	// The second thread exits without ever waking the first.
	f.onResume = m.ThreadExited
	err := w.Await()
	var d *DeadlockError
	if !errors.As(err, &d) {
		t.Fatalf("want DeadlockError after exit, got %v", err)
	}
}

func TestNoFalseQuiescenceWhileRunnable(t *testing.T) {
	m, _ := newMonitor()
	m.ThreadStarted()
	m.ThreadStarted()
	m.Lock()
	w := m.NewWaiterLocked("test", func() string { return "one blocked" })
	m.Unlock()
	// One thread blocked, one running: no deadlock.
	if m.Aborted() {
		t.Fatal("false quiescence")
	}
	m.Lock()
	m.WakeLocked(w)
	m.Unlock()
	if err := w.Await(); err != nil {
		t.Errorf("Await = %v", err)
	}
}

func TestAllThreadsExitedIsNotDeadlock(t *testing.T) {
	m, _ := newMonitor()
	m.ThreadStarted()
	m.ThreadExited()
	if m.Aborted() {
		t.Error("clean exit treated as deadlock")
	}
}

func TestAnalyzerContributesToReport(t *testing.T) {
	m, _ := newMonitor()
	m.AddAnalyzer(func() []string { return []string{"rank 1: finalized"} })
	m.ThreadStarted()
	m.Lock()
	w := m.NewWaiterLocked("MPI collective", func() string { return "rank 0 waiting" })
	m.Unlock()
	err := w.Await()
	if err == nil || !strings.Contains(err.Error(), "rank 1: finalized") {
		t.Errorf("analyzer lines missing from report: %v", err)
	}
}

func TestWakeLockedIdempotent(t *testing.T) {
	m, _ := newMonitor()
	m.ThreadStarted()
	m.ThreadStarted()
	m.Lock()
	w := m.NewWaiterLocked("test", func() string { return "w" })
	m.WakeLocked(w)
	m.WakeLocked(w) // second wake must be a no-op
	m.Unlock()
	if err := w.Await(); err != nil {
		t.Errorf("Await = %v", err)
	}
	if _, blocked := m.Stats(); blocked != 0 {
		t.Errorf("blocked count corrupted: %d", blocked)
	}
}

func TestStats(t *testing.T) {
	m, _ := newMonitor()
	m.ThreadStarted()
	m.ThreadStarted()
	if live, blocked := m.Stats(); live != 2 || blocked != 0 {
		t.Errorf("Stats = %d,%d", live, blocked)
	}
}
