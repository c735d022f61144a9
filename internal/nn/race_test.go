//go:build race

package nn

// raceEnabled reports that this test binary was built with -race, whose
// instrumentation allocates internally and would break the steady-state
// allocs/op assertions.
const raceEnabled = true
