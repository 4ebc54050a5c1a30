//go:build race

package sim

// raceEnabled reports that this test binary was built with the race
// detector, under which sync.Pool drops a random share of what it is
// given; the pooled-run allocation ceiling skips itself under it.
const raceEnabled = true
