package fleet

import (
	"fmt"

	"lupine/internal/simclock"
)

// Demand-driven autoscaling: the front-end watches its own demand signal
// (in-flight requests plus the pending queue) against pool capacity and
// grows or shrinks the pool between Min and Max, with per-direction
// cooldowns so a noisy signal cannot flap the pool. How a new backend is
// provisioned is the policy's business: a snapshot-enabled pool restores
// a clone in microseconds, a cold pool pays a full boot — which is
// exactly the time-to-capacity gap the surge experiment measures.

// Launch describes one autoscaler-provisioned backend.
type Launch struct {
	Ready    simclock.Duration // provisioning latency before the backend joins
	Restored bool              // true: snapshot restore; false: cold boot (fallbacks included)
	Timeline Timeline          // service record once admitted; zero value means AlwaysUp

	// OnRetired runs once when the backend leaves the pool for good —
	// scale-down drain, OOM kill, or upgrade. Provision hooks use it to
	// release the backing snapshot.Clone so the CoW aggregate stops
	// charging for pages whose VM is gone.
	OnRetired func(now simclock.Time)
}

// AutoscalePolicy tunes the autoscaler. All durations are virtual.
type AutoscalePolicy struct {
	Min, Max   int     // pool size bounds (structurally active backends)
	TargetUtil float64 // scale up when demand/capacity exceeds this
	LowUtil    float64 // scale down when demand/capacity falls below this

	Evaluate     simclock.Duration // decision interval
	UpCooldown   simclock.Duration // min time between scale-up decisions
	DownCooldown simclock.Duration // min time between scale-down decisions
	MaxStep      int               // max backends added per decision (0 = no cap)
	DrainTimeout simclock.Duration // scale-down drain bound

	// Provision supplies each new backend (seq counts from 1, now is the
	// decision instant — restore fault windows key off it). Nil
	// provisions instant AlwaysUp backends, for tests.
	Provision func(seq int, now simclock.Time) Launch
}

// launchTimeline defaults a zero-value Launch timeline to AlwaysUp: an
// autoscaler never provisions a dead-on-arrival backend on purpose.
func launchTimeline(l Launch) Timeline {
	if len(l.Timeline.Up) == 0 && l.Timeline.End == 0 && !l.Timeline.UpAfter {
		return AlwaysUp()
	}
	return l.Timeline
}

// demand is the autoscaler's signal: outstanding connections across the
// pool — requests being served plus requests waiting in backlogs.
func (f *Fleet) demand() int {
	n := 0
	for _, b := range f.backends {
		if !b.retired {
			n += b.inflight
		}
	}
	return n
}

// autoscaleTick is the decision loop: compare demand to capacity, scale
// up (bounded by Max, MaxStep and the up-cooldown), or drain the newest
// backend down (bounded by Min and the down-cooldown, and never while a
// launch is still provisioning), then reschedule while work remains.
func (f *Fleet) autoscaleTick(now simclock.Time) {
	p := f.scaler
	active := f.activeCount()
	provisioned := active + f.scalePending
	capacity := provisioned * BackendSlots
	demand := f.demand()

	switch {
	case demand > int(p.TargetUtil*float64(capacity)) && provisioned < p.Max && now >= f.upReadyAt:
		// Enough new backends to bring utilization back to target.
		need := ceilDiv(demand, int(p.TargetUtil*float64(BackendSlots))) - provisioned
		if need < 1 {
			need = 1
		}
		if p.MaxStep > 0 && need > p.MaxStep {
			need = p.MaxStep
		}
		if need > p.Max-provisioned {
			need = p.Max - provisioned
		}
		for i := 0; i < need; i++ {
			f.launch(now)
		}
		f.res.ScaleUps++
		f.upReadyAt = now.Add(p.UpCooldown)
	case demand < int(p.LowUtil*float64(capacity)) && f.scalePending == 0 && now >= f.downReadyAt:
		if b := f.newestActive(); b != nil && active > p.Min {
			f.drain(b, p.DrainTimeout, now, nil)
			f.res.ScaleDowns++
			f.downReadyAt = now.Add(p.DownCooldown)
		}
	}
	if f.resolved < f.cfg.Requests {
		f.eng.Post(now.Add(p.Evaluate), f.autoscaleLoop)
	}
}

// launch provisions one backend through the policy and admits it when
// its provisioning latency elapses.
func (f *Fleet) launch(now simclock.Time) {
	f.scaleSeq++
	seq := f.scaleSeq
	l := Launch{}
	if f.scaler.Provision != nil {
		l = f.scaler.Provision(seq, now)
	}
	f.scalePending++
	f.eng.Schedule(now.Add(l.Ready), func(t simclock.Time) {
		f.scalePending--
		f.join(l, "auto", seq, "scale-up", now, t)
	})
}

// join admits launch l's backend, named prefix<seq>, at t: it observes
// the provisioning that began at start as kind and counts the backend
// as a restore or a cold boot.
func (f *Fleet) join(l Launch, prefix string, seq int, kind string, start, t simclock.Time) {
	nb := NewBackend(fmt.Sprintf("%s%d", prefix, seq), launchTimeline(l))
	nb.onRelease = l.OnRetired
	f.admit(nb, t)
	f.observeProvision(nb, start, t, l.Restored, kind)
	if l.Restored {
		f.res.Restores++
	} else {
		f.res.ColdBoots++
	}
	f.notePool(t)
}

// newestActive returns the most recently admitted active backend — the
// natural scale-down victim (LIFO keeps the original pool stable).
func (f *Fleet) newestActive() *Backend {
	for i := len(f.backends) - 1; i >= 0; i-- {
		if f.backends[i].active() {
			return f.backends[i]
		}
	}
	return nil
}

// notePool records peak pool size and the first instant the pool reached
// the autoscaler's Max — the time-to-capacity metric.
func (f *Fleet) notePool(now simclock.Time) {
	n := f.activeCount()
	if n > f.res.PeakActive {
		f.res.PeakActive = n
	}
	if f.scaler != nil && f.res.FullAt < 0 && n >= f.scaler.Max {
		f.res.FullAt = now
	}
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}
