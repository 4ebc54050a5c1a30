//go:build !race

package gateway

// raceEnabled reports that this test binary was built with the race
// detector, whose shadow memory multiplies the cost of a 64 MiB buffer;
// the chunked over-limit case skips itself under it.
const raceEnabled = false
