package fleet

import "lupine/internal/simclock"

// The memory-pressure plane: a pool can attach a MemoryPlane that the
// engine drives on a fixed virtual-time tick. The plane owns the host
// memory accounting (internal/hostmem) and its reclaim ladder; the fleet
// contributes the two levers only the front-end holds — refusing new
// admissions while pressure is full, and OOM-killing the lowest-priority
// pool member with a scheduled replacement launch.

// MemoryPlane is the pool-specific pressure controller the engine drives.
type MemoryPlane interface {
	// Tick runs one pressure control step at virtual time now. The
	// plane may call back into the fleet (OOMKill) from inside Tick.
	Tick(f *Fleet, now simclock.Time)

	// ShedAdmission reports whether new requests should be refused at
	// admission right now (the ladder's shed rung).
	ShedAdmission(now simclock.Time) bool

	// Finish folds remaining pressure time at end and returns the
	// plane's cumulative accounting for Result.Mem.
	Finish(end simclock.Time) MemStats
}

// MemStats is the memory plane's contribution to Result.
type MemStats struct {
	Capacity         int64             // physical host bytes the pool ran under
	Committed        int64             // promised bytes at peak (overcommit exposure)
	PeakUsed         int64             // resident high-water mark
	BalloonReclaimed int64             // clean bytes freed via balloon inflate
	Evicted          int64             // cold snapshot artifact bytes dropped
	Kills            int               // graded OOM kills (restarted via restore)
	Aborts           int               // OOM crash-loop kills (cold restart, no ladder)
	KilledBytes      int64             // resident bytes reclaimed by kills and aborts
	ReclaimStalls    int               // ticks lost to hostmem/reclaim-stall
	PressureSome     simclock.Duration // virtual time at PSI level some
	PressureFull     simclock.Duration // virtual time at PSI level full
}

// AttachMemory wires a memory plane into the fleet before Run. The
// engine calls p.Tick every tick (0 = the probe interval), consults
// p.ShedAdmission on every arrival, and stores p.Finish in Result.Mem.
func (f *Fleet) AttachMemory(p MemoryPlane, tick simclock.Duration) {
	if tick <= 0 {
		tick = probeInterval
	}
	f.mem = p
	f.memEvery = tick
}

// memTick drives the plane and reschedules itself while work remains.
func (f *Fleet) memTick(now simclock.Time) {
	f.mem.Tick(f, now)
	if f.resolved < f.cfg.Requests {
		f.eng.Post(now.Add(f.memEvery), f.memLoop)
	}
}

// OOMKill abruptly removes the newest active backend — the LIFO victim,
// mirroring the scale-down order: the latest clone is the lowest-priority
// pool member and killing it protects the origin VM. The victim's
// release hook fires immediately (its private pages return to the host);
// requests already in flight on it resolve as dispatched, like
// connections on a socket the kernel tears down late. If l is non-nil a
// replacement is launched after l.Ready — restore-from-snapshot for a
// ladder pool, cold boot for a crash-looping comparator. It returns the
// victim, or nil when no active backend remains to kill.
func (f *Fleet) OOMKill(l *Launch, now simclock.Time) *Backend {
	b := f.newestActive()
	if b == nil {
		return nil
	}
	b.healthy = false
	if f.tr != nil {
		// The instant lands before retirement so the victim's flight dump
		// includes its own death mark.
		f.tr.Instant("fleet", b.lane, "oom-kill", now)
		f.tr.Trip(b.lane, "oom-kill", now)
	}
	f.retire(b, now)
	if l != nil {
		f.scaleSeq++
		seq, lv := f.scaleSeq, *l
		f.eng.Schedule(now.Add(lv.Ready), func(t simclock.Time) {
			f.join(lv, "oom", seq, "oom-replace", now, t)
		})
	}
	return b
}
