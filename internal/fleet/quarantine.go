package fleet

import (
	"lupine/internal/simclock"
)

// Quarantine is the containment ladder's cell-level rung: take b out of
// rotation as a *deliberate* security action. It force-opens the
// breaker (counted in BreakerOpens and the distinct Quarantines
// counter, never in FalseTrips — the wire did not lie, the operator
// acted), marks the backend draining so the dispatcher and the ring
// skip it, and cuts its NIC's egress at the switch so lateral probes —
// and any poisoned in-flight responses — die on the wire. Draining
// means maybeDrained retires the backend as soon as its in-flight
// requests resolve, whether or not a replacement has landed, and
// retiring fires its release hook.
//
// floor is the fewest structurally active backends the cell may keep:
// when removing b would cross it, Quarantine refuses (returns false)
// and the caller must repave first, quarantining on the replacement's
// landing. A backend already draining or retired is already out of
// rotation: Quarantine reports true without recounting.
func (f *Fleet) Quarantine(b *Backend, floor int, now simclock.Time) bool {
	if !b.admitted || b.retired || b.draining {
		return true
	}
	if floor > 0 && f.activeCount() <= floor {
		return false
	}
	before := b.breaker.State()
	b.breaker.ForceOpen(now, "quarantine")
	if before != BreakerOpen {
		f.res.BreakerOpens++
	}
	f.res.Quarantines++
	b.draining = true
	f.ringRemove(b)
	if b.node != nil {
		b.node.SetEgressCut(true)
	}
	f.noteActive()
	if f.tr != nil {
		f.tr.Instant("fleet", b.lane, "quarantine", now)
	}
	return true
}
