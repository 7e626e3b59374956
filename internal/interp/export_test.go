package interp

import "parcoach/internal/sched"

// SetTestStep installs the testStep hook for the external tests and
// returns the function that removes it.
func SetTestStep(f func(rank, tid, line int)) (reset func()) {
	testStep = f
	return func() { testStep = nil }
}

// SetTestScheduler installs the testSched hook for the external tests
// and returns the function that removes it.
func SetTestScheduler(wrap func(sched.Scheduler) sched.Scheduler) (reset func()) {
	testSched = wrap
	return func() { testSched = nil }
}
