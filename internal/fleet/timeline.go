package fleet

import (
	"lupine/internal/fabric"
	"lupine/internal/simclock"
	"lupine/internal/vmm"
)

// Interval is a half-open span [From, To) of backend-local virtual time.
type Interval struct {
	From, To simclock.Time
}

// Timeline is a backend's ground-truth service record: when the
// supervised VM was actually up, relative to the instant the backend
// joined the pool. The fleet front-end never reads it directly for
// routing — health checks and breakers have to discover outages the way
// a real load balancer does — but dispatches and probes consult it as
// the wire would.
type Timeline struct {
	Up      []Interval    // ready spans, in order
	End     simclock.Time // end of the supervised record
	UpAfter bool          // state after End: a recovered service keeps serving

	// Stats carries the supervisor's counter view (restarts, per-outcome
	// totals), the one source of truth the fleet reports aggregate.
	Stats vmm.Stats
}

// FromReport derives a timeline from a supervised run: every ready
// attempt contributes its post-ready span, and a recovered service stays
// up past the end of the record.
func FromReport(rep vmm.SupervisorReport) Timeline {
	tl := Timeline{End: rep.End, UpAfter: rep.Recovered, Stats: rep.Stats()}
	for _, a := range rep.Attempts {
		if a.Ready {
			tl.Up = append(tl.Up, Interval{From: a.Start.Add(a.ReadyAfter), To: a.Start.Add(a.Ran)})
		}
	}
	return tl
}

// AlwaysUp is the timeline of a backend that never fails — freshly
// upgraded instances and test fixtures.
func AlwaysUp() Timeline { return Timeline{UpAfter: true} }

// NeverUp is the timeline of a backend that never comes up.
func NeverUp() Timeline { return Timeline{} }

// UpAt reports whether the service was serving at backend-local time t.
func (tl Timeline) UpAt(t simclock.Time) bool {
	if t >= tl.End {
		return tl.UpAfter
	}
	for _, iv := range tl.Up {
		if t >= iv.From && t < iv.To {
			return true
		}
	}
	return false
}

// Backend is one pool member: a ground-truth timeline plus the
// front-end's view of it (heartbeat health, breaker, in-flight load) and
// its lifecycle state under rolling upgrades.
type Backend struct {
	Name     string
	Timeline Timeline

	start    simclock.Time // fleet time when admitted; timeline origin
	admitted bool
	draining bool // no new dispatches; in-flight requests finish
	retired  bool

	breaker    *Breaker
	healthy    bool // heartbeat verdict; optimistic until probes disagree
	probeFails int
	probeOKs   int

	// The backend's presence on the fabric: its NIC and the listener it
	// serves on, both attached at admission.
	node *fabric.Node
	lst  *fabric.Listener

	inflight int // balancer-side outstanding connections (queued + serving)
	serving  int // server-side accepted connections in service
	served   int
	failed   int

	// Built at admission, so serving a request or a heartbeat allocates
	// neither: the serving slots, and the callback that applies this
	// backend's probe verdicts.
	slots   [BackendSlots]slot
	verdict func(ok bool, now simclock.Time)

	// lane is the backend's trace lane under its pool's track, set when a
	// tracer observes the pool.
	lane string

	// onRetired, when set by the upgrade orchestrator, runs once when
	// this backend leaves the pool for good.
	onRetired func(now simclock.Time)

	// onRelease is the resource-release hook (snapshot clone pages,
	// accountant charges), also fired once at retirement. It is a
	// separate slot because drain() repurposes onRetired as its
	// continuation, which would silently drop a release callback.
	onRelease func(now simclock.Time)

	// liveGate, when set, is ANDed into aliveAt: the region plane kills
	// whole hosts and regions through it without rewriting per-VM
	// timelines. Probes and dispatches discover the death at the wire.
	liveGate func(now simclock.Time) bool
}

// NewBackend wraps a timeline as a pool member. The breaker is attached
// at admission time by the engine (it needs the fleet's config).
func NewBackend(name string, tl Timeline) *Backend {
	return &Backend{Name: name, Timeline: tl}
}

// Breaker exposes the backend's breaker (nil before admission), so tests
// and tables can read the transition timeline.
func (b *Backend) Breaker() *Breaker { return b.breaker }

// Node exposes the backend's NIC on the fabric (nil before admission).
// Containment planes register it as an attack target and cut its egress
// on quarantine.
func (b *Backend) Node() *fabric.Node { return b.node }

// SetOnRelease registers fn to run once when the backend leaves the pool
// for good, however it leaves (drain, OOM kill, upgrade). Pools built
// over snapshot clones release the clone's private pages here.
func (b *Backend) SetOnRelease(fn func(now simclock.Time)) { b.onRelease = fn }

// Served and Failed report per-backend request outcomes.
func (b *Backend) Served() int { return b.served }

// Failed reports requests that failed on this backend.
func (b *Backend) Failed() int { return b.failed }

// SetLiveGate installs an extra liveness condition ANDed into aliveAt
// (fleet time). A backend whose gate reports false is dead on the wire
// regardless of its own timeline — how a host crash or region blackout
// kills every VM it was carrying at once.
func (b *Backend) SetLiveGate(fn func(now simclock.Time) bool) { b.liveGate = fn }

// aliveAt is the ground truth: was the service up at fleet time t?
func (b *Backend) aliveAt(t simclock.Time) bool {
	if !b.admitted || t < b.start {
		return false
	}
	if b.liveGate != nil && !b.liveGate(t) {
		return false
	}
	return b.Timeline.UpAt(simclock.Time(t.Sub(b.start)))
}

// dispatchable reports whether the front-end would route a new request
// here: structurally in rotation, heartbeat-healthy, breaker willing,
// and (half-open) not already carrying a trial.
func (b *Backend) dispatchable(now simclock.Time) bool {
	if !b.admitted || b.retired || b.draining || !b.healthy {
		return false
	}
	if !b.breaker.Allow(now) {
		return false
	}
	if b.breaker.State() == BreakerHalfOpen && b.inflight > 0 {
		return false
	}
	return true
}

// active reports structural pool membership: admitted, not retired, not
// draining. The rolling-upgrade invariant is stated over this count.
func (b *Backend) active() bool { return b.admitted && !b.retired && !b.draining }
