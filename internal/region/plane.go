package region

import (
	"fmt"

	"lupine/internal/attack"
	"lupine/internal/fabric"
	"lupine/internal/faults"
	"lupine/internal/fleet"
	"lupine/internal/hostmem"
	"lupine/internal/simclock"
	"lupine/internal/snapshot"
	"lupine/internal/telemetry"
)

// gatewayBacklog bounds a gateway's SYN backlog; overflowing it is the
// region-level admission shed at the wire.
const gatewayBacklog = 64

// Host is one simulated machine: a hostmem accountant plus the VMs
// placed on it. A dead host takes every placement with it.
type Host struct {
	region *Region
	name   string
	acct   *hostmem.Accountant
	dead   bool
}

// placement is one VM pinned to one host: the fleet backend, the bytes
// it promised the host, and its region-plane death record.
type placement struct {
	b       *fleet.Backend
	host    *Host
	reg     *Region
	ident   int            // index into the plane's identity list
	tl      fleet.Timeline // service record replacements/evacuees inherit
	bytes   int64
	diedAt  simclock.Time // -1 = alive; the live gate reads this
	moved   bool          // replaced by an evacuation, crash restore or repave
	retired bool          // drained out by a rolling upgrade or a containment evacuation

	// Breach-plane state (zero unless Config.Breach armed the attack).
	tgt           *attack.Target // the placement's registration with the campaign
	compromised   bool
	compromisedAt simclock.Time // valid when compromised
	quarantined   bool
	quarantinedAt simclock.Time // valid when quarantined
	contained     bool          // the containment ladder has claimed this placement
}

// live reports whether the placement still serves as itself: not dead,
// not retired, and not replaced by another placement.
func (pl *placement) live() bool { return pl.diedAt < 0 && !pl.retired && !pl.moved }

// Region is one failure domain: hosts, a fleet cell behind a gateway on
// its own fabric zone, and a snapshot store holding the warm pool.
type Region struct {
	name  string
	hosts []*Host
	fl    *fleet.Fleet
	gw    *fabric.Node
	lst   *fabric.Listener
	store *snapshot.Store

	placements []*placement
	injectSeq  int
	verdict    func(ok bool, now simclock.Time) // applies the router's heartbeats, built once

	// Ground truth, written by the fault plane.
	dark   bool
	darkAt simclock.Time // -1 = lit; the gateway's live gate reads this

	// The router's view, earned through probes.
	dead       bool
	deadAt     simclock.Time
	probeFails int
	probeOKs   int
	evacuated  bool

	st RegionStats
}

// Dark reports the ground truth: did the fault plane take this region
// out?
func (r *Region) Dark() bool { return r.dark }

// Plane is the running control plane. Construct with New, drive with
// Run. Router, gateways, every region cell, the attack campaign and the
// shared fabric all interleave on its one simclock.Engine.
type Plane struct {
	cfg Config
	eng *simclock.Engine
	inj *faults.Injector

	net     *fabric.Network
	router  *fabric.Node
	regions []*Region
	repl    *snapshot.Replicator

	idents  []Identity
	idstats []IdentityStats

	arrivalRng *faults.Stream
	rrNext     int

	// Breach plane (nil unless Config.Breach is set).
	atk   *attack.Plane
	atkPl map[*attack.Target]*placement

	resolved     int
	provisioning int // evacuation + crash-replacement + repave restores in flight
	finished     bool

	// The heartbeat and control loops, each built once when Run starts
	// it so a tick posts the next without allocating.
	probeLoop, controlLoop simclock.Func

	tr      *telemetry.Tracer
	trTrack string

	res Result
}

// New assembles the plane: fabric zones and trunks, per-region cells,
// bin-packed placements, and warm-pool replication. inj may be nil (no
// faults anywhere).
func New(cfg Config, inj *faults.Injector) *Plane {
	if len(cfg.Regions) == 0 {
		panic("region: no regions configured")
	}
	p := &Plane{
		cfg:        cfg,
		eng:        simclock.NewEngine(),
		inj:        inj,
		arrivalRng: faults.NewStream(cfg.Seed),
		idents:     cfg.identities(),
	}
	p.res.UpgradeDone = -1
	p.idstats = make([]IdentityStats, len(p.idents))
	for i, id := range p.idents {
		p.idstats[i] = IdentityStats{Name: id.Name, Kernel: id.Kernel}
	}
	p.net = fabric.New(fleet.FabricParams(cfg.Cell), p.eng, inj)

	// Zone interning order is the package contract (ZoneCore,
	// RegionZone): router first, then each region's gateway.
	p.router = p.net.AddNodeZone("router", "core")
	for i, rs := range cfg.Regions {
		p.addRegion(i, rs)
	}
	// Every zone is registered by now, so the fabric builds its trunk
	// table once.
	for _, rs := range cfg.Regions {
		p.net.SetTrunk("core", rs.Name, fabric.LinkSpec{Latency: trunkLatency, Bandwidth: trunkBandwidth})
	}
	p.seedStores()
	p.armBreach()
	return p
}

// Clock exposes the plane's clock so observers (the SLO plane's
// rolling-window samplers) can register aligned-interval callbacks that
// fire as Run advances virtual time. Every attached cell shares this
// clock, so one sampler sees the whole multi-region run.
func (p *Plane) Clock() *simclock.Clock { return p.eng.Clock() }

// Net exposes the shared fabric for tables and tests.
func (p *Plane) Net() *fabric.Network { return p.net }

// Regions exposes the failure domains for tables and tests.
func (p *Plane) Regions() []*Region { return p.regions }

// Observe attaches telemetry: region-lane spans and instants under
// track, cell lanes under track/<region>, and each cell's and the
// campaign's counters in mreg. Either tr or mreg may be nil. Call
// before Run.
func (p *Plane) Observe(tr *telemetry.Tracer, mreg *telemetry.Registry, track string) {
	if tr == nil && mreg == nil {
		return
	}
	p.tr = tr
	p.trTrack = track
	if p.atk != nil {
		p.atk.Observe(tr, mreg, track)
	}
	for _, r := range p.regions {
		r.fl.Observe(tr, mreg, track+"/"+r.name)
	}
}

// addRegion builds one failure domain: gateway node + listener in its
// own zone, hosts, the fleet cell, and the bin-packed initial pool. New
// joins the zone to the core by a trunk once every region is added.
func (p *Plane) addRegion(i int, rs RegionSpec) {
	r := &Region{
		name:   rs.Name,
		store:  snapshot.NewStore(),
		darkAt: -1,
		deadAt: -1,
	}
	r.st = RegionStats{Name: rs.Name}

	rr := r
	r.gw = p.net.AddNodeZone(rs.Name+"/gw", rs.Name)
	r.gw.SetAlive(func(t simclock.Time) bool { return rr.darkAt < 0 || t < rr.darkAt })
	r.lst = r.gw.Listen(gatewayBacklog)
	r.lst.OnPending = func(now simclock.Time) { p.gatewayPump(rr, now) }
	r.verdict = func(ok bool, at simclock.Time) { p.probeVerdict(rr, ok, at) }

	for h := 0; h < rs.Hosts; h++ {
		spec := rs.Host
		r.hosts = append(r.hosts, &Host{
			region: r,
			name:   fmt.Sprintf("%s/h%d", rs.Name, h),
			acct:   hostmem.New(hostmem.Config{Capacity: spec.Capacity, Overcommit: hostOvercommit}),
		})
	}

	cell := p.cfg.Cell
	cell.Seed = p.cfg.Seed ^ (0xC311 + uint64(i)*7919)
	r.fl = fleet.NewAttached(cell, p.eng, p.net, rs.Name)

	// Heterogeneous pools: slot v runs identity v mod len(identities),
	// so every region carries every kernel and the bin-packer mixes
	// their differently-sized VMs on the same hosts.
	for v := 0; v < p.cfg.PoolPerRegion; v++ {
		ident := v % len(p.idents)
		name := fmt.Sprintf("%s/vm%d", rs.Name, v)
		tl := fleet.AlwaysUp()
		if p.cfg.Timeline != nil {
			tl = p.cfg.Timeline(i, v)
		}
		if pl := p.place(r, name, ident, tl, 0); pl != nil {
			p.idstats[ident].Placed++
		}
	}
	p.regions = append(p.regions, r)
}

// place bin-packs one VM of the given identity onto the region host
// with the most commit headroom (first host wins ties) and lands it.
func (p *Plane) place(r *Region, name string, ident int, tl fleet.Timeline, now simclock.Time) *placement {
	id := p.idents[ident]
	h := bestHost(r.hosts, id.VMBytes)
	if h == nil {
		p.res.PlacementDenied++
		return nil
	}
	h.acct.Commit(id.VMBytes)
	p.res.Placed++
	return p.land(r, h, name, ident, tl, now)
}

// land is the one way a VM joins a host: the caller has committed the
// identity's bytes on h; land builds the backend, wires its live gate to
// the placement's death record and its release to the host's ledger,
// admits it into r's cell and registers it with the campaign.
func (p *Plane) land(r *Region, h *Host, name string, ident int, tl fleet.Timeline, now simclock.Time) *placement {
	b := fleet.NewBackend(name, tl)
	pl := &placement{
		b: b, host: h, reg: r, ident: ident, tl: tl,
		bytes: p.idents[ident].VMBytes, diedAt: -1,
	}
	b.SetLiveGate(func(t simclock.Time) bool { return pl.diedAt < 0 || t < pl.diedAt })
	b.SetOnRelease(func(simclock.Time) { pl.host.acct.Uncommit(pl.bytes) })
	r.fl.Admit(b, now)
	r.placements = append(r.placements, pl)
	p.armTarget(pl)
	return pl
}

// bestHost returns the live host with the most commit headroom that can
// admit n more bytes, or nil. Ties break on inventory order, so
// placement is deterministic.
func bestHost(hosts []*Host, n int64) *Host {
	var best *Host
	for _, h := range hosts {
		if h.dead || !h.acct.CanAdmit(n) {
			continue
		}
		if best == nil || h.acct.CommitHeadroom() > best.acct.CommitHeadroom() {
			best = h
		}
	}
	return best
}

// bestHostExcept is bestHost over every region except the excluded one
// — the evacuation destination search. Regions the router believes dead
// or that are actually dark are never destinations.
func (p *Plane) bestHostExcept(excl *Region, n int64) (*Region, *Host) {
	var (
		bestR *Region
		bestH *Host
	)
	for _, r := range p.regions {
		if r == excl || r.dark || r.dead {
			continue
		}
		if h := bestHost(r.hosts, n); h != nil {
			if bestH == nil || h.acct.CommitHeadroom() > bestH.acct.CommitHeadroom() {
				bestR, bestH = r, h
			}
		}
	}
	return bestR, bestH
}

// seedStores fills the warm pools, one lineage per identity: the home
// region (index 0) holds each identity's capture immediately; peers
// receive replicas after the priced transfers complete. No snapshot, or
// replication off, means those paths discover an empty store and
// cold-boot — the comparator story.
func (p *Plane) seedStores() {
	seen := make(map[*snapshot.Snapshot]bool)
	for _, id := range p.idents {
		snap := id.Snapshot
		if snap == nil || seen[snap] {
			continue
		}
		seen[snap] = true
		p.regions[0].store.Put(snap)
		if !p.cfg.Replicate {
			continue
		}
		if p.repl == nil {
			p.repl = snapshot.NewReplicator(replBandwidth)
		}
		for _, r := range p.regions[1:] {
			d := p.repl.Replicate(snap)
			rr := r
			p.eng.Schedule(simclock.Time(0).Add(d), func(simclock.Time) { rr.store.Put(snap) })
		}
	}
}

// Run plays the whole scenario and returns the result. Deterministic:
// the only inputs are the config and the injector's plan and seed.
func (p *Plane) Run() Result {
	base := trafficStart
	p.eng.Arrivals(p.cfg.Requests, func(int) simclock.Time {
		at := base.Add(simclock.Duration(p.arrivalRng.Intn(int(arrivalJitter))))
		base = base.Add(interarrival)
		return at
	}, func(i int, now simclock.Time) {
		p.routeRequest(&greq{p: p, id: i, arrival: now}, now)
	})
	p.res.Total = p.cfg.Requests
	for i := range p.cfg.Upgrades {
		spec := p.cfg.Upgrades[i]
		p.eng.Schedule(spec.Start, func(now simclock.Time) { p.startRollout(spec, now) })
	}
	p.probeLoop, p.controlLoop = p.probeTick, p.controlTick
	p.eng.Post(simclock.Time(probeInterval), p.probeLoop)
	p.eng.Post(simclock.Time(controlEvery), p.controlLoop)
	for _, r := range p.regions {
		r.fl.Start(0)
	}
	if p.atk != nil {
		p.atk.Start(0)
	}
	p.res.Events = p.eng.Run()
	p.res.End = p.eng.Now()
	p.finishStats()
	return p.res
}

// finishStats folds per-region and per-cell accounting into the result.
func (p *Plane) finishStats() {
	if p.repl != nil {
		p.res.Repl = p.repl.Stats()
	}
	for _, r := range p.regions {
		cell := r.fl.Finish(p.res.End)
		r.st.Shed = cell.Shed // the gateway injected every request the cell saw
		r.st.Dead = r.dead
		p.res.PerRegion = append(p.res.PerRegion, r.st)
		p.res.Cells = append(p.res.Cells, cell)
	}
	for _, r := range p.regions {
		for _, pl := range r.placements {
			if pl.diedAt >= 0 && !pl.moved && !pl.retired {
				p.res.Unrecovered++
			}
		}
	}
	p.res.PerIdentity = append(p.res.PerIdentity, p.idstats...)
	p.finishBreach()
}

// maybeFinish stops the control loops once all requests resolved and no
// provisioning is in flight; the engine then drains naturally.
func (p *Plane) maybeFinish(simclock.Time) {
	if p.finished || p.resolved < p.cfg.Requests || p.provisioning > 0 {
		return
	}
	p.finished = true
	for _, r := range p.regions {
		r.fl.Stop()
	}
	if p.atk != nil {
		p.atk.Stop()
	}
}

// --- the region fault plane ---

// controlTick consults the region fault sites once per tick, in a fixed
// order, so the storm replays bit-for-bit.
func (p *Plane) controlTick(now simclock.Time) {
	if d := p.inj.Hit(SiteBlackout, now); d.Fire {
		if i := int(d.Param) - 1; i >= 0 && i < len(p.regions) && !p.regions[i].dark {
			p.blackout(p.regions[i], now)
		}
	}
	if d := p.inj.Hit(SiteHostCrash, now); d.Fire {
		ri, hi := int(d.Param/1000)-1, int(d.Param%1000)-1
		if ri >= 0 && ri < len(p.regions) && hi >= 0 && hi < len(p.regions[ri].hosts) {
			if h := p.regions[ri].hosts[hi]; !h.dead && !p.regions[ri].dark {
				p.crashHost(h, now)
			}
		}
	}
	if !p.finished {
		p.eng.Post(now.Add(controlEvery), p.controlLoop)
	}
}

// blackout is the ground truth of a region dying: gateway and every VM
// go dark at once, moved ones a long partition left in the cell too.
// Nothing is signalled to the router — its probes have to find out.
func (p *Plane) blackout(r *Region, now simclock.Time) {
	r.dark = true
	r.darkAt = now
	for _, pl := range r.placements {
		if pl.diedAt < 0 && !pl.retired {
			pl.diedAt = now
			p.disarmTarget(pl, now)
		}
	}
	if p.tr != nil {
		p.tr.Instant("region", p.trTrack, "blackout", now, telemetry.A("region", r.name))
	}
}

// crashHost kills one host: its placements die on the wire and are
// retired from the cell. Those still serving as themselves get
// replacements restored from the region's own warm pool onto surviving
// local hosts; a placement another path already replaced only dies.
func (p *Plane) crashHost(h *Host, now simclock.Time) {
	h.dead = true
	p.res.HostCrashes++
	if p.tr != nil {
		p.tr.Instant("region", p.trTrack, "host-crash", now, telemetry.A("host", h.name))
	}
	for _, pl := range h.region.placements {
		if pl.host != h || pl.diedAt >= 0 || pl.retired {
			continue
		}
		pl.diedAt = now
		p.disarmTarget(pl, now)
		h.region.fl.Retire(pl.b, now)
		if pl.moved {
			continue
		}
		p.res.CrashKilled++
		p.restore(&crashReplacement, pl, now)
	}
}

// recovery is what one restoring path — crash replacement, evacuation
// or repave — brings to restore: pick chooses the destination (a nil
// host gives up, and pick keeps the path's ledger of giving up), suffix
// marks the replacement's name, tally counts each provision (nil counts
// nothing), and landed is the path's own step once the replacement
// serves.
type recovery struct {
	pick   func(p *Plane, victim *placement, now simclock.Time) (*Region, *Host)
	suffix func(dest *Region) string
	tally  func(p *Plane, ready simclock.Duration, restored, fallback bool)
	landed func(p *Plane, victim, repl *placement, t simclock.Time)
}

// restore commits the victim's bytes on the host rc picks, provisions
// the replacement there and lands it when it is ready. At the landing a
// victim another path already owns — replaced, or retired by a rollout
// while the containment ladder held it (the clean suspects containment
// retires to evacuate are never contained) — releases the commit and
// stops. A destination that went dark, or whose host died, during the
// boot releases it and picks again; only pick's nil ends the recovery.
func (p *Plane) restore(rc *recovery, victim *placement, now simclock.Time) {
	dest, h := rc.pick(p, victim, now)
	if h == nil {
		return
	}
	h.acct.Commit(victim.bytes)
	ready, restored, fallback := p.provision(dest, victim.ident, now)
	if rc.tally != nil {
		rc.tally(p, ready, restored, fallback)
	}
	p.provisioning++
	name := victim.b.Name + rc.suffix(dest)
	p.eng.Schedule(now.Add(ready), func(t simclock.Time) {
		p.provisioning--
		switch {
		case victim.moved || victim.retired && victim.contained:
			h.acct.Uncommit(victim.bytes)
		case dest.dark || h.dead:
			h.acct.Uncommit(victim.bytes)
			p.restore(rc, victim, t)
		default:
			repl := p.land(dest, h, name, victim.ident, victim.tl, t)
			victim.moved = true
			rc.landed(p, victim, repl, t)
		}
		p.maybeFinish(t)
	})
}

// crashReplacement restores a crashed VM inside its own region, from the
// local warm pool, onto the best surviving host. Once the region is
// dark, evacuation owns the victim. Giving up needs no ledger of its
// own: finishStats counts the dead victim unrecovered.
var crashReplacement = recovery{
	pick: func(p *Plane, victim *placement, _ simclock.Time) (*Region, *Host) {
		if r := victim.reg; !r.dark {
			return r, bestHost(r.hosts, victim.bytes)
		}
		return nil, nil
	},
	suffix: func(*Region) string { return "'" },
	landed: func(p *Plane, _, repl *placement, t simclock.Time) {
		p.res.CrashRecovered++
		if p.tr != nil {
			p.tr.Instant("region", p.trTrack, "crash-restore", t, telemetry.A("backend", repl.b.Name))
		}
	},
}

// provision prices bringing one VM of the given identity up in region
// r: a warm restore from the local store's lineage for that identity
// when a replica is there (restore faults fall back to a cold boot,
// accounted), a cold boot otherwise. The per-identity ledger is kept
// here so every provisioning path — crash replacement, evacuation,
// upgrade surge and replacement — counts the same way.
func (p *Plane) provision(r *Region, ident int, now simclock.Time) (ready simclock.Duration, restored, fallback bool) {
	id := p.idents[ident]
	st := &p.idstats[ident]
	snap, ok := r.store.Get(id.Kernel, id.Monitor)
	if !ok {
		st.Cold++
		return id.ColdBoot, false, false
	}
	rr := snap.Restore(p.cfg.Monitor, p.inj, now, id.ColdBoot)
	if rr.Restored {
		st.Restores++
	}
	return rr.Ready, rr.Restored, !rr.Restored
}

// countProvision adds one provision to a path's restore, fallback or
// cold-boot counter.
func countProvision(restored, fallback bool, restores, fallbacks, cold *int) {
	switch {
	case restored:
		*restores++
	case fallback:
		*fallbacks++
	default:
		*cold++
	}
}

// --- evacuation ---

// maybeEvacuate runs when a dead region's dwell expires: if it healed
// and rejoined in the meantime, nothing happens; otherwise every
// backend it held is restored into the survivors.
func (p *Plane) maybeEvacuate(r *Region, now simclock.Time) {
	if !r.dead || r.evacuated {
		return
	}
	r.evacuated = true
	if p.res.EvacStart == 0 || now < p.res.EvacStart {
		p.res.EvacStart = now
	}
	if p.tr != nil {
		p.tr.Instant("region", p.trTrack, "evacuate", now, telemetry.A("region", r.name))
	}
	for _, pl := range r.placements {
		if pl.moved || pl.retired {
			continue
		}
		p.restore(&evacuation, pl, now)
	}
}

// evacuation restores one dead-region backend into the surviving region
// with the most commit headroom, from that region's replica store —
// cold-booting only when no replica is there or a restore fault forces
// the fallback. A dead victim nowhere can take is counted unrecovered by
// finishStats; a clean suspect containment retired to evacuate it is
// counted here, since finishStats skips retired placements.
var evacuation = recovery{
	pick: func(p *Plane, victim *placement, _ simclock.Time) (*Region, *Host) {
		dest, h := p.bestHostExcept(victim.reg, victim.bytes)
		if h == nil && victim.retired {
			p.res.Unrecovered++
		}
		return dest, h
	},
	suffix: func(dest *Region) string { return "@" + dest.name },
	tally: func(p *Plane, ready simclock.Duration, restored, fallback bool) {
		p.res.EvacReady = append(p.res.EvacReady, ready)
		countProvision(restored, fallback, &p.res.EvacRestores, &p.res.EvacFallbacks, &p.res.EvacCold)
	},
	landed: func(p *Plane, victim, repl *placement, t simclock.Time) {
		repl.reg.st.TookIn++
		p.res.Evacuated++
		if t > p.res.EvacEnd {
			p.res.EvacEnd = t
		}
		if p.tr != nil {
			p.tr.Instant("region", p.trTrack, "evac-restore", t,
				telemetry.A("backend", repl.b.Name),
				telemetry.A("host", repl.host.name))
		}
	},
}
