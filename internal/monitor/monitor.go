// Package monitor holds what the run's blocking kernel
// (internal/sched) reports about a run: the happens-before event trace
// its controller records for dynamic partial-order reduction (hb.go),
// and the errors that end a run — the deadlock report, the oracle
// outcome the validator must preempt, and the quarantined panic.
package monitor

import (
	"fmt"
	"strings"
)

// QuarantineError wraps a panic caught at a pool, job or thread
// boundary: the panicking run or compile is classified as an internal
// error (interp.OutcomeInternalError), a bug in the validator rather
// than in the validated program, and the pool, session and cache stay
// healthy instead of the process dying. Stack is the panicking
// goroutine's stack at recovery time.
type QuarantineError struct {
	// Op names the boundary that caught the panic ("explore.run",
	// "campaign.execute", "compile", "sched.thread", ...).
	Op    string
	Value any
	Stack []byte
}

func (e *QuarantineError) Error() string {
	return fmt.Sprintf("panic quarantined at %s: %v", e.Op, e.Value)
}

// DeadlockError reports that every live thread was blocked. Details
// lists what every parked thread waited for, then the deadlock
// analyzers' context lines.
type DeadlockError struct {
	Details []string
}

// Error renders the full report.
func (e *DeadlockError) Error() string {
	var b strings.Builder
	b.WriteString("deadlock: every live thread is blocked")
	if len(e.Details) > 0 {
		b.WriteString("\n")
		b.WriteString(strings.Join(e.Details, "\n"))
	}
	return b.String()
}
