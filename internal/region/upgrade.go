package region

import (
	"lupine/internal/fleet"
	"lupine/internal/simclock"
	"lupine/internal/telemetry"
)

// Rolling upgrades, one identity at a time across the whole plane. The
// fleet layer proved the discipline for a single pool — surge first,
// then drain/rebuild/re-admit each backend, so the active count never
// dips below the original size. Here the same discipline runs per
// identity inside each region (regions in order, one surge per region),
// against the region's own snapshot lineage for that identity, while
// the other identities keep serving untouched.

// rollout is one identity's in-flight upgrade across the plane.
type rollout struct {
	spec    UpgradeSpec
	ident   int
	rebuilt int // plane-wide replacement counter feeding spec.Rebuild
}

// startRollout resolves the spec's identity and begins region 0's pass.
func (p *Plane) startRollout(spec UpgradeSpec, now simclock.Time) {
	for i, id := range p.idents {
		if id.Name == spec.Identity {
			ro := &rollout{spec: spec, ident: i}
			if p.tr != nil {
				p.tr.Instant("region", p.trTrack, "upgrade-start", now,
					telemetry.A("identity", id.Name))
			}
			p.rolloutRegion(ro, 0, now)
			return
		}
	}
	// Unknown identity: a config error, but never a silent hang.
	p.res.UpgradeDone = now
}

// rolloutRegion upgrades one region's backends of the identity, then
// recurses into the next region; past the last it closes the rollout.
func (p *Plane) rolloutRegion(ro *rollout, ri int, now simclock.Time) {
	if ri >= len(p.regions) {
		if now > p.res.UpgradeDone {
			p.res.UpgradeDone = now
		}
		if p.tr != nil {
			p.tr.Instant("region", p.trTrack, "upgrade-done", now,
				telemetry.A("identity", p.idents[ro.ident].Name))
		}
		p.maybeFinish(now)
		return
	}
	r := p.regions[ri]
	targets := p.rolloutTargets(r, ro.ident)
	if r.dark || r.dead || len(targets) == 0 {
		p.rolloutRegion(ro, ri+1, now)
		return
	}
	// Surge capacity boots (from the identity's local lineage) before the
	// first drain, so the region's active count never dips.
	ready, _, _ := p.provision(r, ro.ident, now)
	p.provisioning++
	p.eng.Schedule(now.Add(ready), func(t simclock.Time) {
		p.provisioning--
		if r.dark {
			// The region died under the rollout; evacuation owns it now.
			p.rolloutRegion(ro, ri+1, t)
			return
		}
		surge := p.place(r, r.name+"/surge-"+p.idents[ro.ident].Name, ro.ident, fleet.AlwaysUp(), t)
		if surge == nil {
			p.rolloutRegion(ro, ri+1, t) // no headroom for a surge: skip the region
			return
		}
		p.rolloutStep(ro, ri, surge, targets, 0, t)
	})
}

// rolloutTargets snapshots the identity's live placements in r. The
// slice is fixed up front, like the fleet layer's plan, so backends the
// rollout itself admits are never re-upgraded.
func (p *Plane) rolloutTargets(r *Region, ident int) []*placement {
	var out []*placement
	for _, pl := range r.placements {
		if pl.ident == ident && pl.live() {
			out = append(out, pl)
		}
	}
	return out
}

// rolloutStep drains targets[i], prices the rebuild through the spec's
// build-cache hook, provisions and admits the replacement, then
// recurses; past the last target it drains the surge and moves to the
// next region.
func (p *Plane) rolloutStep(ro *rollout, ri int, surge *placement, targets []*placement, i int, now simclock.Time) {
	r := p.regions[ri]
	if r.dark {
		p.rolloutRegion(ro, ri+1, now)
		return
	}
	if i >= len(targets) {
		surge.retired = true
		p.disarmTarget(surge, now)
		r.fl.Drain(surge.b, ro.spec.DrainTimeout, now, func(t simclock.Time) {
			p.rolloutRegion(ro, ri+1, t)
		})
		return
	}
	old := targets[i]
	if !old.live() {
		// A crash, blackout or containment repave got there first; its own
		// recovery path owns the backend. A second drain of a repaved
		// (already retired) backend would never fire its continuation.
		p.rolloutStep(ro, ri, surge, targets, i+1, now)
		return
	}
	old.retired = true
	p.disarmTarget(old, now)
	r.fl.Drain(old.b, ro.spec.DrainTimeout, now, func(t simclock.Time) {
		rebuild := simclock.Duration(0)
		if ro.spec.Rebuild != nil {
			rebuild = ro.spec.Rebuild(ro.rebuilt)
		}
		ro.rebuilt++
		ready, _, _ := p.provision(r, ro.ident, t)
		p.provisioning++
		p.eng.Schedule(t.Add(rebuild+ready), func(t2 simclock.Time) {
			p.provisioning--
			if r.dark {
				p.rolloutRegion(ro, ri+1, t2)
				return
			}
			if nb := p.place(r, old.b.Name+"+v2", ro.ident, fleet.AlwaysUp(), t2); nb != nil {
				p.res.Upgraded++
				p.idstats[ro.ident].Upgraded++
				if p.tr != nil {
					p.tr.Instant("region", p.trTrack, "upgrade-replace", t2,
						telemetry.A("backend", nb.b.Name))
				}
			}
			p.rolloutStep(ro, ri, surge, targets, i+1, t2)
		})
	})
}
