package hostmem

import (
	"strconv"

	"lupine/internal/faults"
	"lupine/internal/simclock"
	"lupine/internal/telemetry"
)

// Step is one rung of the graded response ladder, in escalation order.
type Step int

const (
	StepBalloon Step = iota // reclaim clean guest pages via the balloon
	StepEvict               // evict cold snapshot artifacts from the store
	StepShed                // refuse new admissions while pressure is full
	StepKill                // OOM-kill the lowest-priority guest

	numSteps
)

// String names the rung.
func (s Step) String() string {
	switch s {
	case StepBalloon:
		return "balloon"
	case StepEvict:
		return "evict"
	case StepShed:
		return "shed"
	case StepKill:
		return "kill"
	}
	return "?"
}

// Hooks are the pool-specific actuators behind each rung. Any hook may
// be nil: a pool without that capability simply skips the rung, which is
// exactly how a libos comparator (no balloon driver, no snapshot store)
// degenerates to shed-then-kill. Each hook mutates the pool it fronts;
// the caller re-derives the pool's charge and Sets it on the accountant
// after Respond returns, so freed bytes become visible to the next tick.
type Hooks struct {
	// Balloon reclaims up to need bytes of clean guest pages and
	// reports how many it actually freed.
	Balloon func(need int64, now simclock.Time) int64

	// Evict drops up to need bytes of cold snapshot artifacts.
	Evict func(need int64, now simclock.Time) int64

	// Kill OOM-kills the lowest-priority guest and reports the resident
	// bytes its death returned (0 when no victim was available).
	Kill func(now simclock.Time) int64

	// Deflate gives up to allowance ballooned bytes back to guests once
	// pressure has cleared, restoring their headroom.
	Deflate func(allowance int64, now simclock.Time) int64
}

// LadderStats are the ladder's cumulative actions.
type LadderStats struct {
	BalloonReclaimed int64 // clean bytes freed via balloon inflate
	Evicted          int64 // cold artifact bytes dropped from the store
	Deflated         int64 // ballooned bytes handed back after pressure cleared
	Kills            int   // OOM kills that found a victim
	KilledBytes      int64 // resident bytes returned by those kills
	ReclaimStalls    int   // ticks lost to hostmem/reclaim-stall
	ShedEngaged      int   // distinct periods with admission shed on
	Invoked          [numSteps]int
}

// Ladder drives the graded response against one accountant. One Respond
// call is one control tick.
type Ladder struct {
	acct     *Accountant
	inj      *faults.Injector
	hooks    Hooks
	shedding bool
	stats    LadderStats

	tr      *telemetry.Tracer
	trTrack string
}

// Observe emits an instant event (cat "hostmem") for every rung the
// ladder climbs: balloon/evict reclaim with need/got bytes, reclaim
// stalls, shed engage/clear, and OOM kills — with a "rung:kill-request"
// mark emitted *before* the Kill hook runs, so the victim's own death
// events always follow a ladder record. Nil-tracer safe.
func (l *Ladder) Observe(tr *telemetry.Tracer, track string) {
	if l == nil || tr == nil {
		return
	}
	l.tr = tr
	l.trTrack = track
}

func (l *Ladder) mark(name string, now simclock.Time, args ...telemetry.Arg) {
	l.tr.Instant("hostmem", l.trTrack, name, now, args...)
}

// NewLadder wires hooks to an accountant. inj may be nil (no fault
// storm armed against the reclaim path).
func NewLadder(acct *Accountant, inj *faults.Injector, hooks Hooks) *Ladder {
	return &Ladder{acct: acct, inj: inj, hooks: hooks}
}

// Shedding reports whether the admission-shed rung is currently engaged.
func (l *Ladder) Shedding() bool { return l.shedding }

// Stats returns the cumulative ladder actions so far.
func (l *Ladder) Stats() LadderStats { return l.stats }

// Respond runs one control tick: read the pressure level, climb as many
// rungs as the level demands, and report the bytes freed this tick. The
// caller must re-Set the pool's charge afterwards — the hooks mutate the
// pool, not the accountant.
func (l *Ladder) Respond(now simclock.Time) int64 {
	l.acct.Sync(now)
	level := l.acct.Level()

	if level == LevelNone {
		l.shedding = false
		// Pressure cleared: hand ballooned pages back, but only as much
		// headroom as exists below the some-threshold so the deflate
		// cannot itself re-trigger pressure.
		if l.hooks.Deflate != nil {
			some := int64(someFrac * float64(l.acct.cfg.Capacity))
			if allowance := some - l.acct.Used(); allowance > 0 {
				l.stats.Deflated += l.hooks.Deflate(allowance, now)
			}
		}
		return 0
	}

	var freed int64
	if need := l.acct.ReclaimTarget(); need > 0 {
		if d := l.inj.Hit(SiteReclaimStall, now); d.Fire {
			l.stats.ReclaimStalls++
			if l.tr != nil {
				l.mark("reclaim-stall", now)
			}
		} else {
			if l.hooks.Balloon != nil {
				l.stats.Invoked[StepBalloon]++
				got := l.hooks.Balloon(need, now)
				l.stats.BalloonReclaimed += got
				freed += got
				if l.tr != nil {
					l.mark("rung:balloon", now,
						telemetry.A("need", strconv.FormatInt(need, 10)),
						telemetry.A("got", strconv.FormatInt(got, 10)))
				}
			}
			if freed < need && l.hooks.Evict != nil {
				l.stats.Invoked[StepEvict]++
				got := l.hooks.Evict(need-freed, now)
				l.stats.Evicted += got
				freed += got
				if l.tr != nil {
					l.mark("rung:evict", now, telemetry.A("got", strconv.FormatInt(got, 10)))
				}
			}
		}
	}

	if level == LevelFull {
		if !l.shedding {
			l.shedding = true
			l.stats.ShedEngaged++
			if l.tr != nil {
				l.mark("rung:shed", now)
			}
		}
		l.stats.Invoked[StepShed]++
	} else {
		if l.shedding && l.tr != nil {
			l.mark("shed-clear", now)
		}
		l.shedding = false
	}

	// The last rung: reclaim did not get residency back under physical
	// capacity, so the host's OOM killer takes one victim per tick.
	if l.acct.Used()-freed > l.acct.Capacity() && l.hooks.Kill != nil {
		l.stats.Invoked[StepKill]++
		if l.tr != nil {
			// Before the hook: the victim's death record must have a
			// ladder record ahead of it.
			l.mark("rung:kill-request", now,
				telemetry.A("overage", strconv.FormatInt(l.acct.Used()-freed-l.acct.Capacity(), 10)))
		}
		if got := l.hooks.Kill(now); got > 0 {
			l.stats.Kills++
			l.stats.KilledBytes += got
			freed += got
			if l.tr != nil {
				l.mark("rung:kill", now, telemetry.A("freed", strconv.FormatInt(got, 10)))
			}
		}
	}
	return freed
}
