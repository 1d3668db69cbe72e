// Package simclock provides the virtual time base used by every simulated
// component in this repository. All latencies, boot times and throughput
// figures are measured in virtual nanoseconds so that experiments are
// deterministic and independent of the host machine.
package simclock

import (
	"fmt"
	"time"
)

// Duration is a span of virtual time in nanoseconds. It deliberately mirrors
// time.Duration so that formatting helpers can be reused, but it is a
// distinct type: mixing virtual and wall-clock time is a bug.
type Duration int64

// Common virtual durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// String formats the duration using the standard library rules.
func (d Duration) String() string { return time.Duration(d).String() }

// Microseconds reports the duration as a float number of microseconds,
// the unit most of the paper's latency figures use.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// Milliseconds reports the duration as a float number of milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// Seconds reports the duration as a float number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Time is an instant in virtual time, in nanoseconds since simulation start.
type Time int64

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between two instants.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t precedes u.
func (t Time) Before(u Time) bool { return t < u }

// String formats the instant as an offset from simulation start.
func (t Time) String() string { return fmt.Sprintf("T+%s", time.Duration(t)) }

// Clock is a simple monotonically advancing virtual clock. It is not safe
// for concurrent use; the guest kernel serializes access through its
// scheduler, which is the only writer.
type Clock struct {
	now      Time
	samplers []*sampler
}

// sampler is one registered aligned-interval callback.
type sampler struct {
	every Duration
	next  Time
	fn    func(Time)
}

// New returns a clock positioned at virtual time zero.
func New() *Clock { return &Clock{} }

// Now reports the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Sample registers fn to run at every boundary k*every (k >= 1) the
// clock advances across, in time order across all samplers (registration
// order breaks ties at the same boundary). The callback observes the
// clock positioned exactly at the boundary, before any event scheduled
// at or after it runs, so sampled readings align deterministically to
// the interval grid regardless of event spacing. There is deliberately
// no sample at time zero: nothing has happened yet, and the first
// boundary at t=every keeps window arithmetic uniform. If the clock is
// already past zero, sampling starts at the next boundary strictly
// after the current instant. every must be positive.
func (c *Clock) Sample(every Duration, fn func(Time)) {
	if every <= 0 {
		panic(fmt.Sprintf("simclock: Sample with non-positive interval %d", every))
	}
	next := Time((int64(c.now)/int64(every) + 1) * int64(every))
	c.samplers = append(c.samplers, &sampler{every: every, next: next, fn: fn})
}

// fire runs every sampler boundary in (c.now, t], in time order, moving
// the clock to each boundary before its callback runs.
func (c *Clock) fire(t Time) {
	for {
		var due *sampler
		for _, s := range c.samplers {
			if s.next > t {
				continue
			}
			if due == nil || s.next < due.next {
				due = s
			}
		}
		if due == nil {
			return
		}
		c.now = due.next
		due.next = due.next.Add(due.every)
		due.fn(c.now)
	}
}

// Advance moves the clock forward by d. Negative advances panic: virtual
// time never flows backwards, and a negative cost is always a bug in a
// cost model.
func (c *Clock) Advance(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("simclock: negative advance %d", d))
	}
	t := c.now.Add(d)
	if len(c.samplers) > 0 {
		c.fire(t)
	}
	c.now = t
}

// AdvanceTo moves the clock forward to instant t. Moving backwards panics.
func (c *Clock) AdvanceTo(t Time) {
	if t < c.now {
		panic(fmt.Sprintf("simclock: AdvanceTo moving backwards: %v -> %v", c.now, t))
	}
	if len(c.samplers) > 0 {
		c.fire(t)
	}
	c.now = t
}
