//go:build !race

package compiler

// raceEnabled reports that this test binary was built with the race
// detector, under which sync.Pool drops a random share of what it is
// given (the steady-state compile allocation ceiling skips itself under
// it) and sequential compiles take minutes (so does the window guard).
const raceEnabled = false
