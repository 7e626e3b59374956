package interp

import (
	"errors"

	"parcoach/internal/monitor"
	"parcoach/internal/mpi"
	"parcoach/internal/verifier"
)

// Outcome classifies how a run ended, collapsing the error types of the
// runtime stack into the categories the differential validation harness
// (internal/mhgen/diff) and the report tables reason about: did a planted
// check stop the run, did the simulated MPI library object, did the
// run controller's deadlock oracle fire, or did plain execution fail.
type Outcome int

// Run outcome classes, ordered from best to worst for a validator: a
// check abort is the tool working as designed, a deadlock is the failure
// mode the tool exists to prevent.
const (
	// OutcomeClean: the run completed without error.
	OutcomeClean Outcome = iota
	// OutcomeCheckAbort: a planted runtime check (internal/verifier)
	// stopped the run with a located verification error.
	OutcomeCheckAbort
	// OutcomeMPIError: the simulated MPI library itself rejected the run
	// (collective mismatch, concurrent calls on one communicator, or an
	// init/finalize/thread-level usage error). On a real machine this
	// class may hang or corrupt instead of failing cleanly.
	OutcomeMPIError
	// OutcomeDeadlock: the deadlock oracle fired — the run's controller
	// found every live thread blocked and reported their waits. This is
	// the outcome the paper's tool must prevent from being reached
	// uncaught.
	OutcomeDeadlock
	// OutcomeRuntimeError: a plain execution error (bad index, division
	// by zero, missing function, ...).
	OutcomeRuntimeError
	// OutcomeBudget: the run exhausted Options.MaxSteps. Distinct from
	// OutcomeDeadlock (nothing was blocked — the schedule just never
	// terminated within budget) so bounded exploration of generated
	// programs cannot misread a spin as a hang.
	OutcomeBudget
	// OutcomeValueError: the value oracle (internal/verifier's collective
	// round observer) flagged data-level disagreement — divergent roots,
	// mismatched reduction ops, a torn source buffer, or a result that
	// differs from the oracle's recomputation — in a round whose
	// collective sequence matched.
	OutcomeValueError
	// OutcomeCanceled: the run was stopped from outside — a canceled
	// context (client disconnect, SIGTERM, -timeout on the whole job).
	// Says nothing about the program; exploration and campaigns exclude
	// these runs from verdict aggregation.
	OutcomeCanceled
	// OutcomeTimeout: the per-run wall-clock watchdog
	// (Options.WallTimeout) fired. Complements OutcomeBudget: a budget
	// overrun counts statements, a watchdog counts seconds — a run that
	// wedges without executing statements (outside the controller's
	// control) only the watchdog can stop.
	OutcomeTimeout
	// OutcomeInternalError: the run (or its compile) panicked and was
	// quarantined at the pool boundary instead of taking the process
	// down — a bug in the validator, not in the validated program. The
	// error carries the panic value and stack (QuarantineError).
	OutcomeInternalError
)

var outcomeNames = [...]string{
	OutcomeClean:         "clean",
	OutcomeCheckAbort:    "check-abort",
	OutcomeMPIError:      "mpi-error",
	OutcomeDeadlock:      "deadlock",
	OutcomeRuntimeError:  "runtime-error",
	OutcomeBudget:        "budget-exhausted",
	OutcomeValueError:    "value-error",
	OutcomeCanceled:      "canceled",
	OutcomeTimeout:       "timeout",
	OutcomeInternalError: "internal-error",
}

func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return "outcome(?)"
}

// MarshalText encodes the outcome class by its name.
func (o Outcome) MarshalText() ([]byte, error) { return []byte(o.String()), nil }

// ClassifyError maps a run error to its Outcome class (nil means
// clean). It walks err's errors.Unwrap chain: the outermost error of a
// class decides, and a chain with none is a runtime error. The runtime
// stack's errors arrive unwrapped, so the first step decides them
// without the heap traffic of errors.As targets.
func ClassifyError(err error) Outcome {
	if err == nil {
		return OutcomeClean
	}
	for e := err; e != nil; e = errors.Unwrap(e) {
		switch e.(type) {
		case *verifier.Error:
			return OutcomeCheckAbort
		case *verifier.ValueError:
			return OutcomeValueError
		case *monitor.DeadlockError:
			return OutcomeDeadlock
		case *StepLimitError:
			return OutcomeBudget
		case *mpi.MismatchError, *mpi.ConcurrentCallError, *mpi.UsageError:
			return OutcomeMPIError
		case *RuntimeError:
			return OutcomeRuntimeError
		case *CancelError:
			return OutcomeCanceled
		case *WatchdogError:
			return OutcomeTimeout
		case *QuarantineError:
			return OutcomeInternalError
		}
	}
	return OutcomeRuntimeError
}

// Outcome classifies the run's error.
func (r *Result) Outcome() Outcome { return ClassifyError(r.Err) }
