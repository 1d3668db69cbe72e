package fleet

import (
	"fmt"

	"lupine/internal/simclock"
)

// UpgradePlan orchestrates a rolling kernel upgrade across the pool:
// boot surge capacity first, then for each original backend in turn
// drain it, take it out, rebuild its kernel, boot the replacement and
// re-admit it (a replacement always serves: the upgrade fixed the
// faults); finally drain the surge instance away. Because the surge
// backend joins before the first drain begins, the structurally active
// count never falls below the original pool size — the N-1/N availability
// floor holds by construction, and Result.MinActive proves it per run.
type UpgradePlan struct {
	Start        simclock.Time     // when the rollout begins
	BootTime     simclock.Duration // boot latency of surge and replacement instances
	DrainTimeout simclock.Duration // max wait for in-flight requests before forcing removal

	// RebuildTime prices rebuilding backend i's kernel image — the
	// experiment wires this to core.NewKernelCache, so the first rebuild
	// pays a full build and subsequent identical configurations are
	// cache hits. Nil means free.
	RebuildTime func(i int) simclock.Duration

	// Surge is the temporary extra instance's timeline.
	Surge Timeline
}

func (p *UpgradePlan) rebuildTime(i int) simclock.Duration {
	if p.RebuildTime == nil {
		return 0
	}
	return p.RebuildTime(i)
}

// startUpgrade boots the surge instance; the rollout proper begins only
// once it is in rotation, so capacity never dips first.
func (f *Fleet) startUpgrade(now simclock.Time) {
	targets := append([]*Backend(nil), f.backends...)
	surge := NewBackend("surge", f.plan.Surge)
	f.eng.Schedule(now.Add(f.plan.BootTime), func(t simclock.Time) {
		f.admit(surge, t)
		f.upgradeStep(targets, surge, 0, t)
	})
}

// upgradeStep drains and replaces targets[i], then recurses; past the
// last target it drains the surge instance and ends the rollout.
func (f *Fleet) upgradeStep(targets []*Backend, surge *Backend, i int, now simclock.Time) {
	if i >= len(targets) {
		f.drain(surge, f.plan.DrainTimeout, now, func(simclock.Time) { f.upgraded = true })
		return
	}
	old := targets[i]
	f.drain(old, f.plan.DrainTimeout, now, func(t simclock.Time) {
		delay := f.plan.rebuildTime(i) + f.plan.BootTime
		f.eng.Schedule(t.Add(delay), func(t2 simclock.Time) {
			f.admit(NewBackend(fmt.Sprintf("%s+v2", old.Name), AlwaysUp()), t2)
			f.upgradeStep(targets, surge, i+1, t2)
		})
	})
}

// drain takes b out of the dispatch rotation, waits for its in-flight
// requests (bounded by timeout), then retires it and runs done (which
// may be nil: autoscaler scale-downs need no continuation).
func (f *Fleet) drain(b *Backend, timeout simclock.Duration, now simclock.Time, done func(now simclock.Time)) {
	b.draining = true
	b.onRetired = done
	f.ringRemove(b)
	if f.tr != nil {
		f.tr.Instant("fleet", b.lane, "drain", now)
	}
	f.noteActive()
	if b.inflight == 0 {
		f.retire(b, now)
		return
	}
	f.eng.Schedule(now.Add(timeout), func(t simclock.Time) {
		if !b.retired {
			f.retire(b, t) // drain timeout: abandon stragglers
		}
	})
}

// maybeDrained retires a draining backend the moment its last in-flight
// request resolves.
func (f *Fleet) maybeDrained(b *Backend, now simclock.Time) {
	if b.draining && !b.retired && b.inflight == 0 {
		f.retire(b, now)
	}
}

// retire removes b permanently and fires its continuation once.
func (f *Fleet) retire(b *Backend, now simclock.Time) {
	if b.retired {
		return
	}
	b.retired = true
	f.ringRemove(b)
	if f.tr != nil {
		f.tr.Instant("fleet", b.lane, "retire", now)
	}
	f.noteActive()
	if cb := b.onRelease; cb != nil {
		b.onRelease = nil
		cb(now)
	}
	if cb := b.onRetired; cb != nil {
		b.onRetired = nil
		cb(now)
	}
}
