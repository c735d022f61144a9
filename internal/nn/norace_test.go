//go:build !race

package nn

// raceEnabled reports whether this test binary was built with -race.
const raceEnabled = false
