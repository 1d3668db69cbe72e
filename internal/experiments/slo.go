package experiments

// The experiment side of the SLO plane (internal/slo). Every storm
// scopes its hero row: a Scope samples the row's telemetry counters on
// the storm's own virtual clock, evaluates multi-window burn-rate rules
// against declared objectives, and attributes each alert to the fault
// storm and plane events that caused it. The resulting report lands in
// the run's Env, where lupine-bench's -slo-out exports it and the tests
// assert causality (a netsplit availability burn must name
// fabric/partition, a memstorm burn hostmem/reclaim-stall, a breach
// containment alert must precede the first repave).

import (
	"lupine/internal/region"
	"lupine/internal/simclock"
	"lupine/internal/slo"
	"lupine/internal/telemetry"
	"lupine/internal/vmm"
)

// sloEvery is the default SLI sample interval: fine enough that a
// millisecond-scale storm window spans several samples, coarse enough
// that sampling stays a rounding error next to the event engine.
const sloEvery = 250 * simclock.Microsecond

// sloAvailability is the standard fleet-row availability objective:
// served requests are good, sheds and failures burn the budget.
func sloAvailability(track string, target float64, rules []slo.BurnRule) slo.Objective {
	return slo.Objective{
		Name:   "availability",
		Good:   []string{track + ".served"},
		Bad:    []string{track + ".shed", track + ".failed"},
		Target: target,
		Rules:  rules,
	}
}

// sloLatency is the standard fleet-row latency objective: the fraction
// of served requests completing within threshold.
func sloLatency(track string, threshold simclock.Duration, target float64, rules []slo.BurnRule) slo.Objective {
	return slo.Objective{
		Name:      "latency",
		Hist:      track + ".latency",
		Threshold: threshold,
		Target:    target,
		Rules:     rules,
	}
}

// sloFleet is the objective pair of a fleet hero row under a storm:
// two nines of availability, and 90% of served requests within 2 ms.
func sloFleet(track string) []slo.Objective {
	return []slo.Objective{
		sloAvailability(track, 0.99, slo.DefaultRules(simclock.Millisecond, 10, 4)),
		sloLatency(track, 2*simclock.Millisecond, 0.9, slo.DefaultRules(simclock.Millisecond, 5, 2)),
	}
}

// sloRegionAvailability sums the availability SLI across a region
// plane's per-region cells (the cells observe at track+"/"+name).
func sloRegionAvailability(track string, regions []region.RegionSpec, target float64, rules []slo.BurnRule) slo.Objective {
	o := slo.Objective{Name: "availability", Target: target, Rules: rules}
	for _, r := range regions {
		lane := track + "/" + r.Name
		o.Good = append(o.Good, lane+".served")
		o.Bad = append(o.Bad, lane+".shed", lane+".failed")
	}
	return o
}

// sloReplaySupervisor replays a supervised run's serving timeline into
// up/down nanosecond counters sampled on a uniform grid. The chaos
// experiment has no fleet clock to bind a scope to — the supervisor
// report IS its timeline — so the SLO plane watches it by replay:
// identical inputs produce an identical grid and identical burns.
func sloReplaySupervisor(scope *slo.Scope, reg *telemetry.Registry, track string, rep vmm.SupervisorReport) {
	up := reg.Counter(track + ".up-ns")
	down := reg.Counter(track + ".down-ns")
	type span struct{ from, to simclock.Time }
	var serving []span
	for _, rec := range rep.Attempts {
		if !rec.Ready {
			continue
		}
		from, to := rec.Start.Add(rec.ReadyAfter), rec.Start.Add(rec.Ran)
		if to > from {
			serving = append(serving, span{from, to})
		}
	}
	upWithin := func(a, b simclock.Time) simclock.Duration {
		var total simclock.Duration
		for _, s := range serving {
			lo, hi := s.from, s.to
			if lo < a {
				lo = a
			}
			if hi > b {
				hi = b
			}
			if hi > lo {
				total += hi.Sub(lo)
			}
		}
		return total
	}
	end := rep.End
	for t := simclock.Time(sloEvery); ; t = t.Add(sloEvery) {
		prev := t.Add(-sloEvery)
		hi := t
		if hi > end {
			hi = end
		}
		if hi > prev {
			u := upWithin(prev, hi)
			up.Add(int64(u))
			down.Add(int64(hi.Sub(prev) - u))
		}
		scope.Sample(t)
		if t >= end {
			break
		}
	}
}

// recordSLO lands the scoped rows' reports in env as experiment id's
// SLO report. Nil scopes (unscoped rows, skipped variants) are dropped.
func (env *Env) recordSLO(id string, scopes ...*slo.Scope) {
	env.SLO = &slo.Report{Experiment: id, Seed: env.Seed, Scopes: []slo.ScopeReport{}}
	for _, s := range scopes {
		if s != nil {
			env.SLO.Scopes = append(env.SLO.Scopes, s.Report())
		}
	}
}
