package fleet

import (
	"fmt"

	"lupine/internal/simclock"
)

// BreakerState is the classic three-state circuit breaker.
type BreakerState int

// Breaker states. Closed passes traffic and counts consecutive failures;
// Open rejects traffic until a cool-down elapses; HalfOpen admits a
// single trial at a time and closes after enough successes (trial
// requests or health-probe successes both count).
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String names the state the way the transition log prints it.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int(s))
	}
}

// BreakerConfig tunes one backend's breaker.
type BreakerConfig struct {
	FailThreshold int // consecutive failures that trip Closed -> Open
}

// Every breaker's fixed tuning.
const (
	breakerOpenFor           = 5 * simclock.Millisecond // cool-down before Open -> HalfOpen
	breakerHalfOpenSuccesses = 2                        // consecutive successes that close a half-open breaker
)

// BreakerTransition is one edge of the state machine on the fleet
// timeline; the sequence of transitions for a fixed seed is the
// deterministic-replay contract the tests pin down.
type BreakerTransition struct {
	At       simclock.Time
	From, To BreakerState
	Cause    string
}

// String renders the transition for timeline diffs.
func (t BreakerTransition) String() string {
	return fmt.Sprintf("%v %v->%v (%s)", t.At, t.From, t.To, t.Cause)
}

// Breaker is a per-backend circuit breaker driven by data-plane request
// outcomes and control-plane health probes. It is single-threaded like
// the rest of the simulation substrate.
type Breaker struct {
	cfg      BreakerConfig
	state    BreakerState
	fails    int // consecutive failures while closed
	oks      int // consecutive successes while half-open
	reopenAt simclock.Time

	// Transitions records every state change in order.
	Transitions []BreakerTransition

	// OnTransition, when set, observes every state change as it is
	// recorded; the telemetry plane hooks it to emit instant events.
	OnTransition func(BreakerTransition)
}

// NewBreaker returns a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker { return &Breaker{cfg: cfg} }

// State reports the current state without side effects.
func (b *Breaker) State() BreakerState { return b.state }

// ReopenAt reports when an open breaker becomes eligible for half-open.
func (b *Breaker) ReopenAt() simclock.Time { return b.reopenAt }

func (b *Breaker) transition(now simclock.Time, to BreakerState, cause string) {
	t := BreakerTransition{At: now, From: b.state, To: to, Cause: cause}
	b.Transitions = append(b.Transitions, t)
	b.state = to
	b.fails = 0
	b.oks = 0
	if b.OnTransition != nil {
		b.OnTransition(t)
	}
}

// Allow reports whether a request may be sent now. An open breaker whose
// cool-down has elapsed moves to half-open as a side effect, so the first
// caller after the window becomes the trial.
func (b *Breaker) Allow(now simclock.Time) bool {
	if b.state == BreakerOpen && now >= b.reopenAt {
		b.transition(now, BreakerHalfOpen, "cool-down elapsed")
	}
	return b.state != BreakerOpen
}

// Success records a successful request.
func (b *Breaker) Success(now simclock.Time) { b.success(now, "trial successes") }

// ProbeSuccess records a successful health probe. Probes close a
// half-open breaker just like trial requests, so a backend with no
// traffic routed at it can still rejoin the pool.
func (b *Breaker) ProbeSuccess(now simclock.Time) { b.success(now, "probe successes") }

func (b *Breaker) success(now simclock.Time, cause string) {
	switch b.state {
	case BreakerClosed:
		b.fails = 0
	case BreakerHalfOpen:
		b.oks++
		if b.oks >= breakerHalfOpenSuccesses {
			b.transition(now, BreakerClosed, cause)
		}
	}
}

// Failure records a failed request: enough consecutive failures trip a
// closed breaker, and any failure re-opens a half-open one.
func (b *Breaker) Failure(now simclock.Time) {
	switch b.state {
	case BreakerClosed:
		b.fails++
		if b.fails >= b.cfg.FailThreshold {
			b.reopenAt = now.Add(breakerOpenFor)
			b.transition(now, BreakerOpen, "consecutive failures")
		}
	case BreakerHalfOpen:
		b.reopenAt = now.Add(breakerOpenFor)
		b.transition(now, BreakerOpen, "trial failed")
	}
}

// ProbeFailure records a failed health probe. A failed probe dooms a
// half-open trial window but does not count against a closed breaker:
// liveness is the health checker's verdict, the breaker's job is the
// data plane.
func (b *Breaker) ProbeFailure(now simclock.Time) {
	if b.state == BreakerHalfOpen {
		b.reopenAt = now.Add(breakerOpenFor)
		b.transition(now, BreakerOpen, "probe failed")
	}
}

// ForceOpen trips the breaker open from any state as a deliberate
// control-plane action — the containment ladder's quarantine, not a
// data-plane verdict. The cool-down still applies, but a quarantined
// backend is also draining, so it never re-enters rotation through a
// half-open trial: Allow is only consulted for dispatchable backends.
func (b *Breaker) ForceOpen(now simclock.Time, cause string) {
	b.reopenAt = now.Add(breakerOpenFor)
	if b.state != BreakerOpen {
		b.transition(now, BreakerOpen, cause)
	}
}
