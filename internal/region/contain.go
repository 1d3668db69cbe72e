package region

import (
	"lupine/internal/attack"
	"lupine/internal/simclock"
	"lupine/internal/telemetry"
)

// The containment ladder: what the control plane does once the attack
// plane owns a guest. Detect (the campaign's canary anomalies) →
// quarantine (breaker force-open + drain + fabric egress cut, so
// lateral probes and poisoned responses die on the wire) → repave
// (restore a known-good lineage through the same restore-and-land path
// crash replacement and evacuation take — cold boot only on a
// restore-fault fallback) → region evacuation when compromise
// density says the whole failure domain is suspect. An identity with no
// snapshot lineage (the libos comparators) has nothing attested to
// restore: its repave is denied and the compromise is never recovered —
// the specialization story's security dividend, measured.

// BreachConfig arms the attack plane against the control plane's
// placements and tunes the ladder's answers.
type BreachConfig struct {
	// Campaign tunes the exploit plane. A zero Seed derives one from
	// the plane's seed so breach runs replay with everything else.
	Campaign attack.Config

	// Surface supplies the exploit surface per identity index. Nil
	// means every identity presents an open surface (everything
	// exposed, nothing hardened) — the comparator default.
	Surface func(ident int) attack.Surface

	// EvacuateDensity triggers a region-level containment evacuation
	// when the fraction of a region's live placements currently
	// compromised reaches it — the KML blast-radius answer. 0 = never.
	EvacuateDensity float64
}

// BreachStats is the containment ladder's ledger for one run.
type BreachStats struct {
	Quarantined        int // quarantines that landed (egress cut, breaker opened)
	QuarantineDeferred int // quarantines deferred to the repave landing by the cell floor

	Repaved         int // compromised placements replaced from lineage
	RepaveRestores  int // repaves served by a warm snapshot restore
	RepaveFallbacks int // restore-fault fallbacks (cold boot after a doomed restore)
	RepaveCold      int // repaves cold-booted because no replica was resident
	RepaveDenied    int // repaves refused: no snapshot lineage, or no capacity anywhere

	RegionEvacs int // region-level containment evacuations

	Contained    int // compromised placements quarantined AND replaced
	IsolatedOnly int // quarantined but never replaced: spread stopped, capacity lost
	StillServing int // compromised, never quarantined: serving poisoned answers at end

	Dwell []simclock.Duration // compromise -> egress cut (end of run if never), per compromise
}

// cellFloor is the fewest structurally active backends a cell may be
// quarantined down to. A quarantine that would cross it defers: the
// repave replacement boots first and the victim is quarantined the
// instant it lands, so the floor holds throughout.
const cellFloor = 1

// armBreach builds the attack plane and registers every initial
// placement, in placement order. Called once at the end of New.
func (p *Plane) armBreach() {
	bc := p.cfg.Breach
	if bc == nil {
		return
	}
	camp := bc.Campaign
	if camp.Seed == 0 {
		camp.Seed = p.cfg.Seed ^ 0xA77AC4
	}
	p.atk = attack.New(camp, p.eng, p.net, p.inj)
	p.atkPl = make(map[*attack.Target]*placement)
	p.atk.SetHooks(attack.Hooks{
		OnCompromise: p.onCompromise,
		OnDetect:     p.onDetect,
	})
	for _, r := range p.regions {
		for _, pl := range r.placements {
			p.armTarget(pl)
		}
	}
}

// armTarget registers one placement with the campaign. No-op before the
// attack plane exists (New's initial placements are swept by armBreach)
// or when the placement is already registered.
func (p *Plane) armTarget(pl *placement) {
	if p.atk == nil || pl.tgt != nil {
		return
	}
	sfc := attack.Surface{}
	if p.cfg.Breach.Surface != nil {
		sfc = p.cfg.Breach.Surface(pl.ident)
	}
	pl.tgt = p.atk.Register(pl.b.Name, sfc, pl.b.Node(), pl.host.name)
	p.atkPl[pl.tgt] = pl
}

// disarmTarget takes a placement out of the campaign: dead, repaved,
// evacuated and upgrade-retired backends stop being victims, lateral
// sources and pending host takeovers.
func (p *Plane) disarmTarget(pl *placement, now simclock.Time) {
	if pl.tgt == nil || p.atk == nil {
		return
	}
	p.atk.Deregister(pl.tgt, now)
}

// onCompromise is the campaign's compromise hook: mark the placement,
// then check the region's compromise density against the evacuation
// threshold.
func (p *Plane) onCompromise(t *attack.Target, cause string, now simclock.Time) {
	pl := p.atkPl[t]
	if pl == nil {
		return
	}
	pl.compromised = true
	pl.compromisedAt = now
	if p.tr != nil {
		p.tr.Instant("region", p.trTrack, "compromise", now,
			telemetry.A("backend", pl.b.Name), telemetry.A("cause", cause))
	}
	bc := p.cfg.Breach
	r := pl.reg
	if bc.EvacuateDensity <= 0 || r.dark || r.evacuated {
		return
	}
	live, comp := 0, 0
	for _, q := range r.placements {
		if !q.live() {
			continue
		}
		live++
		if q.compromised {
			comp++
		}
	}
	if live > 0 && float64(comp)/float64(live) >= bc.EvacuateDensity {
		p.containmentEvacuate(r, now)
	}
}

// onDetect is the campaign's detection hook: the ladder answers.
func (p *Plane) onDetect(t *attack.Target, now simclock.Time) {
	if pl := p.atkPl[t]; pl != nil {
		p.contain(pl, now)
	}
}

// contain runs the ladder for one compromised placement: quarantine
// now if the cell floor allows, else repave first and quarantine on the
// replacement's landing — the floor never breaks either way. Placements
// another recovery path already owns (crashed, blacked out, upgraded,
// evacuated) are left to it.
func (p *Plane) contain(pl *placement, now simclock.Time) {
	if pl.contained || !pl.live() {
		return
	}
	pl.contained = true
	if pl.reg.fl.Quarantine(pl.b, cellFloor, now) {
		p.noteQuarantine(pl, now)
	} else {
		p.res.Breach.QuarantineDeferred++
		if p.tr != nil {
			p.tr.Instant("region", p.trTrack, "quarantine-deferred", now,
				telemetry.A("backend", pl.b.Name))
		}
	}
	p.restore(&repaving, pl, now)
}

// noteQuarantine records a landed quarantine exactly once.
func (p *Plane) noteQuarantine(pl *placement, now simclock.Time) {
	if pl.quarantined {
		return
	}
	pl.quarantined = true
	pl.quarantinedAt = now
	p.res.Breach.Quarantined++
	if p.atk != nil && pl.tgt != nil {
		p.atk.Quarantined(pl.tgt, now)
	}
	if p.tr != nil {
		p.tr.Instant("region", p.trTrack, "quarantine", now,
			telemetry.A("backend", pl.b.Name))
	}
}

// repaving replaces a compromised placement with a fresh boot of its
// identity's known-good lineage, then retires the victim. The
// replacement lands in the victim's own region while it is lit and
// still routes, else (dead or dark under containment evacuation) in a
// survivor. An identity with no snapshot lineage has nothing attested to
// restore from: the repave is denied and the victim stays as it is
// (quarantined if the ladder got that far). A quarantine the cell floor
// deferred lands with the replacement, so the floor holds throughout.
var repaving = recovery{
	pick: func(p *Plane, victim *placement, now simclock.Time) (*Region, *Host) {
		reason := "no-lineage"
		if p.idents[victim.ident].Snapshot != nil {
			r := victim.reg
			if !r.dark && !r.dead {
				if h := bestHost(r.hosts, victim.bytes); h != nil {
					return r, h
				}
			}
			if dest, h := p.bestHostExcept(r, victim.bytes); h != nil {
				return dest, h
			}
			reason = "no-capacity"
		}
		p.res.Breach.RepaveDenied++
		if p.tr != nil {
			p.tr.Instant("region", p.trTrack, "repave-denied", now,
				telemetry.A("backend", victim.b.Name), telemetry.A("reason", reason))
		}
		return nil, nil
	},
	suffix: func(*Region) string { return "!" },
	tally: func(p *Plane, _ simclock.Duration, restored, fallback bool) {
		b := &p.res.Breach
		countProvision(restored, fallback, &b.RepaveRestores, &b.RepaveFallbacks, &b.RepaveCold)
	},
	landed: func(p *Plane, victim, repl *placement, t simclock.Time) {
		// The replacement is in rotation; the floor holds with the victim
		// gone, so a deferred quarantine lands now.
		if !victim.quarantined && victim.reg.fl.Quarantine(victim.b, 0, t) {
			p.noteQuarantine(victim, t)
		}
		victim.reg.fl.Retire(victim.b, t)
		p.disarmTarget(victim, t)
		p.res.Breach.Repaved++
		if p.tr != nil {
			p.tr.Instant("region", p.trTrack, "repave", t,
				telemetry.A("backend", repl.b.Name),
				telemetry.A("host", repl.host.name))
		}
	},
}

// containmentEvacuate treats the whole region as suspect: it leaves the
// routing set deliberately (no Failovers/FalseTrips accounting — the
// router did not misjudge, the operator acted), compromised placements
// run the ladder, and clean ones are retired as suspects and restored
// into the survivors through the standard evacuation machinery.
func (p *Plane) containmentEvacuate(r *Region, now simclock.Time) {
	if r.dark || r.evacuated {
		return
	}
	p.res.Breach.RegionEvacs++
	r.dead = true
	if r.deadAt < 0 {
		r.deadAt = now
	}
	r.evacuated = true // a deliberately evacuated region never rejoins
	if p.tr != nil {
		p.tr.Instant("region", p.trTrack, "containment-evacuate", now,
			telemetry.A("region", r.name))
	}
	for _, pl := range r.placements {
		if !pl.live() {
			continue
		}
		if pl.compromised {
			p.contain(pl, now)
			continue
		}
		// A clean suspect: out of the campaign, out of the cell, and
		// restored from lineage into a survivor (cold when it has none).
		p.disarmTarget(pl, now)
		pl.retired = true
		r.fl.Retire(pl.b, now)
		p.restore(&evacuation, pl, now)
	}
}

// finishBreach folds the per-placement breach record into the result:
// dwell (compromise to egress cut, end of run if never) and the
// contained / isolated-only / still-serving split the acceptance
// criteria are stated over.
func (p *Plane) finishBreach() {
	if p.atk == nil {
		return
	}
	p.res.Attack = p.atk.Stats()
	for _, r := range p.regions {
		for _, pl := range r.placements {
			if !pl.compromised {
				continue
			}
			end := p.res.End
			if pl.quarantined {
				end = pl.quarantinedAt
			} else if pl.diedAt >= 0 {
				end = pl.diedAt
			}
			p.res.Breach.Dwell = append(p.res.Breach.Dwell, end.Sub(pl.compromisedAt))
			switch {
			case pl.quarantined && (pl.moved || pl.retired):
				p.res.Breach.Contained++
			case pl.quarantined:
				p.res.Breach.IsolatedOnly++
			case pl.live():
				p.res.Breach.StillServing++
			}
		}
	}
}
