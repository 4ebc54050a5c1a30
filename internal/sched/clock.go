package sched

import (
	"sync"
	"time"
)

// Clock abstracts the scheduler's one use of time — reading the current
// instant for the latency accounting — so tests can make the stage
// windows exact with a FakeClock while production uses the system clock.
// The dispatch rule itself reads no clock.
type Clock interface {
	Now() time.Time
}

// SystemClock is the production Clock backed by package time.
var SystemClock Clock = systemClock{}

type systemClock struct{}

// Now reads the wall clock. This is the one sanctioned call site:
// everything else in sched/serve must go through a Clock so tests stay
// deterministic (enforced by internal/lint).
//
//lint:allow clockuse
func (systemClock) Now() time.Time { return time.Now() }

// FakeClock is a manually advanced Clock for deterministic tests: time
// moves only on Advance.
type FakeClock struct {
	mu  sync.Mutex
	now time.Time
}

// NewFakeClock returns a FakeClock reading start.
func NewFakeClock(start time.Time) *FakeClock { return &FakeClock{now: start} }

func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}
