package interp

// SetTestStep installs the testStep hook for the external tests and
// returns the function that removes it.
func SetTestStep(f func(rank, tid, line int)) (reset func()) {
	testStep = f
	return func() { testStep = nil }
}
