package experiments

// The memstorm experiment: host memory overcommit under a dirty-page
// growth storm. The paper's Fig. 5 argument is that a Linux in unikernel
// clothing keeps the *mechanisms* general-purpose kernels use to degrade
// gracefully — so when a host overcommits memory 2x and every clone's
// working set grows at once, a lupine+mp snapshot pool has a graded
// ladder to climb (balloon reclaim of clean pages, eviction of cold
// snapshot artifacts, admission shed, and at worst a deterministic OOM
// kill restarted via restore in microseconds), while a libos comparator
// exposes no balloon, no evictable artifacts and no restore path: its
// host's only lever is the OOM killer, and every kill costs a full cold
// boot — the crash-loop the unikernel-security survey predicts.

import (
	"fmt"

	"lupine/internal/core"
	"lupine/internal/faults"
	"lupine/internal/fleet"
	"lupine/internal/guest"
	"lupine/internal/hostmem"
	"lupine/internal/libos"
	"lupine/internal/metrics"
	"lupine/internal/simclock"
	"lupine/internal/slo"
	"lupine/internal/snapshot"
	"lupine/internal/telemetry"
	"lupine/internal/vmm"
)

func init() { memStorm.register() }

// Pool shape and storm calibration. The host capacity is derived from
// the pool's own measured baseline so the experiment tracks the cost
// model: the quiet pool sits at memBaselineFrac of capacity, and the
// storm's committed demand totals memOvercommit x capacity.
const (
	memPoolClones   = 3    // restored clones beside the origin VM
	memLibosMembers = 4    // same pool size for the comparators
	memBaselineFrac = 0.55 // quiet-pool residency as a fraction of capacity
	memOvercommit   = 2.0  // committed demand relative to capacity
	memCleanFrac    = 0.45 // share of each clone's growth that is clean page cache

	memTickEvery = 250 * simclock.Microsecond
)

// Storm window in fleet virtual time: it covers most of the traffic so
// degraded pools cannot hide behind a quiet tail.
const (
	memStormFrom = simclock.Time(5 * simclock.Millisecond)
	memStormTo   = simclock.Time(65 * simclock.Millisecond)
)

// memConfig shapes traffic so a full pool is comfortably sufficient but
// one missing member is not: losing a backend for a cold-boot window
// backs the queue up, which is how an OOM crash-loop becomes visible as
// unavailability.
func memConfig(seed uint64) fleet.Config {
	const us = simclock.Microsecond
	cfg := fleet.DefaultConfig()
	cfg.Seed = seed
	cfg.Requests = 3000
	cfg.Interarrival = 25 * us
	cfg.ArrivalJitter = 10 * us
	cfg.ServiceTime = 300 * us
	cfg.TrafficStart = simclock.Time(simclock.Millisecond)
	return cfg
}

// memStallPlan arms the reclaim path's own failure modes: probabilistic
// reclaim stalls during the storm and a wedged balloon on the first
// deflate attempt.
func memStallPlan(seed uint64) faults.Plan {
	return faults.Plan{
		Seed: seed ^ 0x9D2F,
		Rules: []faults.Rule{
			{Site: hostmem.SiteReclaimStall, NthHit: 1},
			{Site: hostmem.SiteReclaimStall, From: memStormFrom, To: memStormTo, Prob: 0.2, Limit: 10},
			{Site: guest.SiteBalloonDeflateFail, NthHit: 1},
		},
	}
}

// memResult is one table row plus what the tests assert on.
type memResult struct {
	System   string
	Ladder   bool // graded ladder wired (balloon, evict, shed, restore)
	Capacity int64
	Res      fleet.Result

	scope *slo.Scope // SLO scope, set on the stall row only
}

// memPool is the MemoryPlane of a lupine snapshot pool: the accountant
// charges the origin's host RSS, the snapshot store's resident artifacts
// and the clone set's private pages; the ladder reclaims through the
// balloon and the store, sheds at full pressure, and OOM-kills the
// newest clone with a restore-path replacement.
type memPool struct {
	f      *fleet.Fleet
	g      *guest.Kernel
	cs     *snapshot.CloneSet
	store  *snapshot.Store
	pin    string
	acct   *hostmem.Accountant
	ladder *hostmem.Ladder
	clones []*snapshot.Clone

	tr    *telemetry.Tracer
	track string
	snap  *snapshot.Snapshot
	mon   *vmm.Monitor

	restoreReady               simclock.Duration
	dirtyPerTick, cleanPerTick int64
}

func (p *memPool) charge() int64 {
	return p.g.HostRSS() + p.store.Resident() + p.cs.PrivateRSS()
}

func (p *memPool) hooks() hostmem.Hooks {
	return hostmem.Hooks{
		Balloon: func(need int64, _ simclock.Time) int64 {
			freed := p.g.BalloonInflate(need)
			if freed < need {
				freed += p.cs.ReclaimClean(need - freed)
			}
			return freed
		},
		Evict: func(need int64, _ simclock.Time) int64 {
			return p.store.EvictCold(need, p.pin)
		},
		Kill: func(now simclock.Time) int64 {
			if p.f == nil || p.cs.Active() == 0 {
				return 0
			}
			before := p.cs.PrivateRSS()
			nc := p.cs.Clone()
			victim := p.f.OOMKill(&fleet.Launch{
				Ready:     p.restoreReady,
				Restored:  true,
				OnRetired: func(simclock.Time) { nc.Release() },
			}, now)
			if victim == nil {
				nc.Release()
				return 0
			}
			p.clones = append(p.clones, nc)
			if p.tr != nil {
				// The replacement's restore span; the nil injector keeps the
				// real fault stream untouched (spans are decoration, not load).
				p.snap.RestoreObserved(p.mon, nil, now, p.snap.BootTotal, p.tr, p.track+"/oom-restore")
			}
			if freed := before - p.cs.PrivateRSS(); freed > 0 {
				return freed
			}
			return 0
		},
		Deflate: func(allowance int64, now simclock.Time) int64 {
			got, err := p.g.BalloonDeflate(allowance, now)
			if err != nil {
				return 0
			}
			return got
		},
	}
}

func (p *memPool) Tick(f *fleet.Fleet, now simclock.Time) {
	p.f = f
	if now >= memStormFrom && now < memStormTo {
		for _, c := range p.clones {
			if !c.Released() {
				c.Touch(p.dirtyPerTick)
				c.Cache(p.cleanPerTick)
			}
		}
	}
	p.acct.Set("pool", p.charge(), now)
	p.ladder.Respond(now)
	p.acct.Set("pool", p.charge(), now)
}

func (p *memPool) ShedAdmission(simclock.Time) bool { return p.ladder.Shedding() }

func (p *memPool) Finish(end simclock.Time) fleet.MemStats {
	p.acct.Sync(end)
	st := p.ladder.Stats()
	return fleet.MemStats{
		Capacity:         p.acct.Capacity(),
		Committed:        p.acct.Committed(),
		PeakUsed:         p.acct.Peak(),
		BalloonReclaimed: st.BalloonReclaimed,
		Evicted:          st.Evicted,
		Kills:            st.Kills,
		KilledBytes:      st.KilledBytes,
		ReclaimStalls:    st.ReclaimStalls,
		PressureSome:     p.acct.PressureTime(hostmem.LevelSome),
		PressureFull:     p.acct.PressureTime(hostmem.LevelFull),
	}
}

// memCrash is the MemoryPlane of a libos comparator pool: every member
// is an opaque unikernel at full footprint, nothing is reclaimable, and
// the only response to physical overage is the host OOM killer — each
// kill aborts a member outright and its replacement pays a full cold
// boot, during which the shrunken pool backs up.
type memCrash struct {
	acct      *hostmem.Accountant
	footprint int64
	coldBoot  simclock.Duration
	perTick   int64

	priv        []int64 // live members' storm growth, admission order
	pending     []simclock.Time
	aborts      int
	killedBytes int64
}

func (p *memCrash) charge() int64 {
	total := int64(len(p.priv)) * p.footprint
	for _, v := range p.priv {
		total += v
	}
	return total
}

func (p *memCrash) Tick(f *fleet.Fleet, now simclock.Time) {
	keep := p.pending[:0]
	for _, t := range p.pending {
		if t <= now {
			p.priv = append(p.priv, 0) // replacement finished its cold boot
		} else {
			keep = append(keep, t)
		}
	}
	p.pending = keep
	if now >= memStormFrom && now < memStormTo {
		for i := range p.priv {
			p.priv[i] += p.perTick
		}
	}
	p.acct.Set("pool", p.charge(), now)
	if p.acct.Overage() > 0 && len(p.priv) > 0 {
		if victim := f.OOMKill(&fleet.Launch{Ready: p.coldBoot}, now); victim != nil {
			n := len(p.priv) - 1
			p.killedBytes += p.footprint + p.priv[n]
			p.priv = p.priv[:n]
			p.aborts++
			p.pending = append(p.pending, now.Add(p.coldBoot))
			p.acct.Set("pool", p.charge(), now)
		}
	}
}

func (p *memCrash) ShedAdmission(simclock.Time) bool { return false }

func (p *memCrash) Finish(end simclock.Time) fleet.MemStats {
	p.acct.Sync(end)
	return fleet.MemStats{
		Capacity:     p.acct.Capacity(),
		Committed:    p.acct.Committed(),
		PeakUsed:     p.acct.Peak(),
		Aborts:       p.aborts,
		KilledBytes:  p.killedBytes,
		PressureSome: p.acct.PressureTime(hostmem.LevelSome),
		PressureFull: p.acct.PressureTime(hostmem.LevelFull),
	}
}

// memTicks is the number of storm control ticks.
func memTicks() int64 { return int64(memStormTo.Sub(memStormFrom) / memTickEvery) }

// pageAlign rounds down to whole pages so storm growth composes with the
// page-granular Touch/Cache accounting without rounding inflation.
func pageAlign(n int64) int64 { return n / 4096 * 4096 }

// runMemLadderPool runs one lupine+mp snapshot pool through the storm.
// The caller supplies the origin unikernel (booted fresh per variant so
// balloon state starts clean), the cold artifacts that populate the
// store, and an optional injector arming reclaim-stall/deflate-fail.
func runMemLadderPool(env *Env, name string, u *core.Unikernel, artifacts []*snapshot.Snapshot, inj *faults.Injector) (memResult, error) {
	out := memResult{System: name, Ladder: true}
	track := "memstorm/" + name

	// The stall row (the one with an injector) carries the SLO scope:
	// pressure sheds and kill-driven latency burn the budget, and the
	// incident chain names the armed reclaim stalls plus the ladder
	// rungs that climbed in response.
	var objs []slo.Objective
	if inj != nil {
		objs = sloFleet(track)
	}
	row := env.row(track, inj, sloEvery, objs...)
	tr := row.tr
	out.scope = row.scope

	// The origin VM boots once, its boot phases and attempt on the trace.
	vm, snap, err := capture(u, inj, tr, track+"/origin")
	if err != nil {
		return out, err
	}

	store := snapshot.NewStore()
	for _, a := range artifacts {
		store.Put(a)
	}
	store.Put(snap)
	cs := snapshot.NewCloneSet(snap.BaseRSS)

	p := &memPool{
		g:            vm.Guest,
		cs:           cs,
		store:        store,
		pin:          snapshot.Key(snap.Kernel, snap.Monitor),
		restoreReady: snap.RestoreCost(),
		tr:           tr,
		track:        track,
		snap:         snap,
		mon:          vmm.Firecracker(),
	}

	// Calibrate the storm from the measured baseline: capacity puts the
	// quiet pool at memBaselineFrac, and the clones' committed growth
	// brings total demand to memOvercommit x capacity.
	baseline := p.charge()
	capacity := pageAlign(int64(float64(baseline) / memBaselineFrac))
	growth := int64(memOvercommit*float64(capacity)) - baseline
	perClone := growth / memPoolClones
	perTick := pageAlign(perClone / memTicks())
	p.cleanPerTick = pageAlign(int64(memCleanFrac * float64(perTick)))
	p.dirtyPerTick = perTick - p.cleanPerTick

	// FullFrac 0.95: a pool that can reclaim and restore in microseconds
	// only refuses work in the last 5% before physical exhaustion — the
	// shed rung is a narrow band, not the default posture.
	p.acct = hostmem.New(hostmem.Config{Capacity: capacity, Overcommit: memOvercommit, FullFrac: 0.95})
	p.acct.Observe(tr, track)
	p.acct.Commit(baseline)
	p.ladder = hostmem.NewLadder(p.acct, inj, p.hooks())
	p.ladder.Observe(tr, track)

	backends := []*fleet.Backend{fleet.NewBackend("origin", fleet.AlwaysUp())}
	for i := 0; i < memPoolClones; i++ {
		if !p.acct.Commit(perClone) {
			return out, fmt.Errorf("memstorm: clone %d refused admission under %gx overcommit", i, memOvercommit)
		}
		if tr != nil {
			// Pre-provisioned clones are restores too; the nil injector keeps
			// the real fault stream untouched.
			snap.RestoreObserved(p.mon, nil, 0, snap.BootTotal, tr, fmt.Sprintf("%s/clone%d", track, i))
		}
		c := cs.Clone()
		p.clones = append(p.clones, c)
		b := fleet.NewBackend(fmt.Sprintf("clone%d", i), fleet.AlwaysUp())
		b.SetOnRelease(func(simclock.Time) { c.Release() })
		backends = append(backends, b)
	}

	f := fleet.New(memConfig(env.Seed), backends, nil, nil)
	f.AttachMemory(p, memTickEvery)
	out.Res = runRow(row, f)
	out.Capacity = capacity
	return out, nil
}

// runMemCrashPool runs one libos comparator pool through the same storm
// shape, scaled to its own footprint.
func runMemCrashPool(env *Env, s *libos.System) (memResult, error) {
	out := memResult{System: s.Name}
	footprint := libosFootprint(s)

	baseline := memLibosMembers * footprint
	capacity := pageAlign(int64(float64(baseline) / memBaselineFrac))
	growth := int64(memOvercommit*float64(capacity)) - baseline
	perMember := growth / memLibosMembers

	p := &memCrash{
		footprint: footprint,
		coldBoot:  libosBoot(s),
		perTick:   pageAlign(perMember / memTicks()),
	}
	p.acct = hostmem.New(hostmem.Config{Capacity: capacity, Overcommit: memOvercommit})
	p.acct.Observe(env.Trace, "memstorm/"+s.Name)
	p.acct.Commit(baseline)
	var backends []*fleet.Backend
	for i := 0; i < memLibosMembers; i++ {
		p.acct.Commit(perMember)
		p.priv = append(p.priv, 0)
		backends = append(backends, fleet.NewBackend(fmt.Sprintf("vm%d", i), fleet.AlwaysUp()))
	}
	p.priv = p.priv[:memLibosMembers] // storm growth slots, one per member

	f := fleet.New(memConfig(env.Seed), backends, nil, nil)
	f.AttachMemory(p, memTickEvery)
	out.Res = runRow(env.row("memstorm/"+s.Name, nil, sloEvery), f)
	out.Capacity = capacity
	return out, nil
}

var memStorm = &storm[memResult]{
	id:      "memstorm",
	title:   "Memory pressure: graded degradation ladder under a 2x overcommit storm (robustness)",
	systems: []string{"lupine+mp"},
	rows: func(env *Env, name string) ([]memResult, error) {
		u, err := redis(name)
		if err != nil {
			return nil, err
		}
		// Cold artifacts shared across both pools: snapshots of other
		// kernels resident in the store — exactly the reclaimable mass the
		// eviction rung exists for.
		var artifacts []*snapshot.Snapshot
		for _, variant := range []string{"lupine-general", "microvm"} {
			cold, err := redis(variant)
			if err != nil {
				return nil, err
			}
			_, snap, err := capture(cold, nil, nil, "")
			if err != nil {
				return nil, fmt.Errorf("memstorm: capturing cold artifact: %w", err)
			}
			artifacts = append(artifacts, snap)
		}
		quiet, err := runMemLadderPool(env, name, u, artifacts, nil)
		if err != nil {
			return nil, err
		}
		stall, err := runMemLadderPool(env, name+"/stall", u, artifacts, faults.MustNew(memStallPlan(env.Seed)))
		if err != nil {
			return nil, err
		}
		return []memResult{quiet, stall}, nil
	},
	comparator: runMemCrashPool,
	scope:      func(r memResult) *slo.Scope { return r.scope },
	caption: func(seed uint64) string {
		return fmt.Sprintf("memory-pressure ladder under a %gx overcommit storm (seed %d, %d members/pool)",
			memOvercommit, seed, memPoolClones+1)
	},
	columns: []string{"system", "capacity (MiB)", "peak used", "P-some (ms)", "P-full (ms)",
		"balloon (MiB)", "evict (MiB)", "mem-shed", "kills", "aborts", "stalls", "availability"},
	cells: func(r memResult) []any {
		m := r.Res.Mem
		return []any{r.System, trim1(float64(r.Capacity) / float64(guest.MiB)),
			metrics.Percent(float64(m.PeakUsed) / float64(r.Capacity)), trim1(m.PressureSome.Milliseconds()),
			trim1(m.PressureFull.Milliseconds()), trim1(float64(m.BalloonReclaimed) / float64(guest.MiB)),
			trim1(float64(m.Evicted) / float64(guest.MiB)), r.Res.MemSheds, m.Kills, m.Aborts,
			m.ReclaimStalls, metrics.Percent(r.Res.Availability())}
	},
	notes: []string{
		"every pool is committed to 2x its host capacity; the storm converts commitments into resident dirty pages mid-traffic",
		"lupine+mp climbs the graded ladder: balloon reclaim of clean pages, LRU eviction of cold snapshot artifacts, admission shed at full pressure, and at worst an OOM kill whose replacement restores from snapshot in microseconds",
		"the stall row arms hostmem/reclaim-stall and balloon/deflate-fail: wedged reclaim deepens pressure and costs extra sheds or kills",
		"libos comparators expose no balloon, no evictable artifacts and no restore path: physical overage goes straight to the host OOM killer, and every abort pays a full cold boot while the shrunken pool backs up",
	},
}
