package experiments

// The surge experiment: demand-driven fleet autoscaling under a traffic
// spike, with and without snapshot restore. The paper's headline numbers
// are per-boot costs — boot time (§4.3) and memory footprint (§4.4) —
// and at fleet scale they compound: every scale-up pays a cold boot and
// every instance pays a full RSS. A snapshot plane (the production
// Firecracker playbook) collapses both: restore skips every boot phase
// except the monitor handoff, and copy-on-write lets N clones share the
// base image's resident pages. The table compares time-to-capacity and
// aggregate pool memory for lupine / lupine-general / microvm pools with
// snapshots on and off, plus the libos comparators, which must cold-boot
// and crash-restart (§6.2: no snapshot story, and fork kills them).

import (
	"fmt"

	"lupine/internal/faults"
	"lupine/internal/fleet"
	"lupine/internal/guest"
	"lupine/internal/libos"
	"lupine/internal/metrics"
	"lupine/internal/simclock"
	"lupine/internal/slo"
	"lupine/internal/snapshot"
	"lupine/internal/vmm"
)

func init() { surgeStorm.register() }

// Pool bounds and the per-clone dirty working set a restored VM accrues
// (connection buffers, allocator churn) while serving the spike.
const (
	surgeMin        = 2
	surgeMax        = 8
	surgeDirtyBytes = 3 * guest.MiB
)

// surgeConfig shapes the spike: arrivals far above what the Min pool can
// serve, so the autoscaler must grow the pool mid-traffic.
func surgeConfig(seed uint64) fleet.Config {
	cfg := fleet.DefaultConfig()
	cfg.Seed = seed
	cfg.Requests = 3000
	cfg.Interarrival = 10 * simclock.Microsecond
	cfg.ArrivalJitter = 5 * simclock.Microsecond
	return cfg
}

// surgePolicy is the shared autoscaler tuning; provisioning (restore vs
// cold boot) is the per-variant part.
func surgePolicy(provision func(seq int, now simclock.Time) fleet.Launch) *fleet.AutoscalePolicy {
	return &fleet.AutoscalePolicy{
		Min:          surgeMin,
		Max:          surgeMax,
		TargetUtil:   0.7,
		LowUtil:      0.2,
		Evaluate:     250 * simclock.Microsecond,
		UpCooldown:   500 * simclock.Microsecond,
		DownCooldown: 5 * simclock.Millisecond,
		MaxStep:      2,
		DrainTimeout: 2 * simclock.Millisecond,
		Provision:    provision,
	}
}

// surgeFaultPlan arms the snapshot plane's own failure modes: the second
// restore loads a corrupt artifact, and one later restore dies
// mid-flight. Both fall back to cold boots with the wasted work charged.
func surgeFaultPlan(seed uint64) faults.Plan {
	return faults.Plan{
		Seed: seed ^ 0x5A7C,
		Rules: []faults.Rule{
			{Site: snapshot.SiteCorrupt, NthHit: 2, Param: 4096},
			{Site: snapshot.SiteRestoreFail, NthHit: 3},
		},
	}
}

// surgeResult is one table row plus what the tests assert on.
type surgeResult struct {
	System       string
	Snapshots    bool
	Restore      simclock.Duration // clean restore cost (0 when snapshots off)
	ColdBoot     simclock.Duration
	TrafficStart simclock.Time
	Fallbacks    int   // restores that fell back to cold boots
	AggRSS       int64 // pool memory: shared base + dirty pages + cold copies
	NaiveRSS     int64 // what the same pool would cost without CoW sharing
	Res          fleet.Result

	scope *slo.Scope // SLO scope, set on the storm row only
}

// TimeToCapacity is how long after traffic start the pool reached Max
// (-1: never).
func (r surgeResult) TimeToCapacity() simclock.Duration {
	if r.Res.FullAt < 0 {
		return -1
	}
	d := r.Res.FullAt.Sub(r.TrafficStart)
	if d < 0 {
		d = 0
	}
	return d
}

// runSurgeVariant runs one pool through the spike. snap == nil means the
// cold-boot variant: every launch pays the full boot. faulty arms the
// snapshot plane's seeded fault storm against the restores.
func runSurgeVariant(env *Env, name string, snap *snapshot.Snapshot, faulty bool, coldBoot simclock.Duration, coldRSS int64, timeline func() fleet.Timeline) (surgeResult, error) {
	res := surgeResult{System: name, Snapshots: snap != nil, ColdBoot: coldBoot}
	var (
		cs   *snapshot.CloneSet
		sinj *faults.Injector
	)
	if snap != nil {
		res.Restore = snap.RestoreCost()
		cs = snapshot.NewCloneSet(snap.BaseRSS)
		if faulty {
			var err error
			if sinj, err = faults.New(surgeFaultPlan(env.Seed)); err != nil {
				return res, err
			}
		}
	}
	// The storm row's SLO scope: the spike's ramp and the seeded restore
	// faults both show up as availability burn, attributed to the
	// snapshot plane's fire log.
	track := "surge/" + name
	var objs []slo.Objective
	if faulty {
		objs = []slo.Objective{
			sloAvailability(track, 0.95, slo.DefaultRules(simclock.Millisecond, 8, 3)),
			sloLatency(track, 2*simclock.Millisecond, 0.9, slo.DefaultRules(simclock.Millisecond, 5, 2)),
		}
	}
	row := env.row(track, sinj, sloEvery, objs...)
	res.scope = row.scope
	mon := vmm.Firecracker()
	provision := func(seq int, now simclock.Time) fleet.Launch {
		if snap == nil {
			return fleet.Launch{Ready: coldBoot, Timeline: timeline()}
		}
		rr := snap.RestoreObserved(mon, sinj, now, coldBoot, row.tr, track)
		if !rr.Restored {
			res.Fallbacks++
			return fleet.Launch{Ready: rr.Ready, Timeline: timeline()}
		}
		// The clone's private pages live exactly as long as its backend:
		// LIFO scale-down drains release them, so AggregateRSS reflects
		// the pool that is actually running, not every clone ever made.
		c := cs.Clone()
		c.Touch(surgeDirtyBytes)
		return fleet.Launch{
			Ready:     rr.Ready,
			Restored:  true,
			Timeline:  timeline(),
			OnRetired: func(simclock.Time) { c.Release() },
		}
	}

	cfg := surgeConfig(env.Seed)
	cfg.TrafficStart = simclock.Time(coldBoot + simclock.Millisecond)
	res.TrafficStart = cfg.TrafficStart
	var backends []*fleet.Backend
	for i := 0; i < surgeMin; i++ {
		backends = append(backends, fleet.NewBackend(fmt.Sprintf("vm%d", i), timeline()))
	}
	res.Res = runRow(row, fleet.NewAutoscaled(cfg, backends, surgePolicy(provision), nil, nil))

	// Pool memory at peak: cold instances (the initial pool and every
	// cold-boot launch) each pay a full RSS; restored clones share the
	// snapshot's base and pay only their dirty pages.
	coldCopies := int64(surgeMin + res.Res.ColdBoots)
	res.AggRSS = coldCopies * coldRSS
	if cs != nil && cs.Clones() > 0 {
		res.AggRSS += cs.AggregateRSS()
	}
	res.NaiveRSS = (coldCopies + int64(res.Res.Restores)) * coldRSS
	return res, nil
}

var surgeStorm = &storm[surgeResult]{
	id:      "surge",
	title:   "Snapshot scale-out: time-to-capacity and pool memory under a traffic spike (scale)",
	systems: []string{"lupine", "lupine-general", "microvm"},
	rows: func(env *Env, name string) ([]surgeResult, error) {
		u, err := redis(name)
		if err != nil {
			return nil, err
		}
		vm, snap, err := capture(u, nil, nil, "")
		if err != nil {
			return nil, fmt.Errorf("surge: capturing %s: %w", name, err)
		}
		coldBoot, coldRSS := vm.Boot.Total, vm.Guest.MemUsed()
		with, err := runSurgeVariant(env, name+"+snap", snap, false, coldBoot, coldRSS, fleet.AlwaysUp)
		if err != nil {
			return nil, err
		}
		out := []surgeResult{with}
		// The same snapshot pool under the seeded snapshot-plane storm
		// (one row suffices): a corrupt artifact and a mid-flight restore
		// failure fall back to cold boots, and the fallbacks gate the ramp.
		if name == "lupine" {
			stormy, err := runSurgeVariant(env, name+"+snap/storm", snap, true, coldBoot, coldRSS, fleet.AlwaysUp)
			if err != nil {
				return nil, err
			}
			out = append(out, stormy)
		}
		without, err := runSurgeVariant(env, name, nil, false, coldBoot, coldRSS, fleet.AlwaysUp)
		if err != nil {
			return nil, err
		}
		return append(out, without), nil
	},
	// The libos comparators: no snapshot story on their monitors, and the
	// workload's fork kills them — every pool member and every scale-up
	// cold boots, serves briefly, crashes, and gets crash-restarted until
	// the supervisor gives up.
	comparator: func(env *Env, s *libos.System) (surgeResult, error) {
		crash := libosCrash(s, 2*simclock.Millisecond)
		tl := func() fleet.Timeline {
			rep := vmm.Supervise(vmm.RestartPolicy{MaxRestarts: 5, Backoff: 5 * simclock.Millisecond},
				func(int) vmm.Attempt { return crash })
			return fleet.FromReport(rep)
		}
		return runSurgeVariant(env, s.Name, nil, false, libosBoot(s), libosFootprint(s), tl)
	},
	scope: func(r surgeResult) *slo.Scope { return r.scope },
	caption: func(seed uint64) string {
		return fmt.Sprintf("snapshot scale-out under a traffic spike (seed %d, pool %d..%d, slots x%d)",
			seed, surgeMin, surgeMax, fleet.BackendSlots)
	},
	columns: []string{"system", "launch", "restore (µs)", "cold boot (ms)", "time-to-cap (ms)",
		"availability", "shed rate", "restores", "cold boots", "fallbacks", "pool RSS (MiB)", "no-CoW RSS (MiB)"},
	cells: func(r surgeResult) []any {
		launch, restore := "cold boot", "-"
		if r.Snapshots {
			launch = "snapshot"
			restore = trim1(r.Restore.Microseconds())
		}
		ttc := "never"
		if d := r.TimeToCapacity(); d >= 0 {
			ttc = trim1(d.Milliseconds())
		}
		return []any{r.System, launch, restore, trim1(r.ColdBoot.Milliseconds()), ttc,
			metrics.Percent(r.Res.Availability()), metrics.Percent(r.Res.ShedRate()), r.Res.Restores,
			r.Res.ColdBoots, r.Fallbacks, trim1(float64(r.AggRSS) / float64(guest.MiB)),
			trim1(float64(r.NaiveRSS) / float64(guest.MiB))}
	},
	notes: []string{
		"identical spike per row: arrivals outrun the Min pool, the autoscaler grows toward Max; snapshot pools restore clones in microseconds, cold pools pay the full boot per launch",
		"restore skips every boot phase except monitor handoff and lazily maps the captured RSS; copy-on-write clones share the base pages and are charged dirty pages only",
		"seeded snapshot faults: one corrupt artifact and one mid-flight restore failure fall back to cold boots with the wasted work accounted",
		"libos comparators cold-boot and crash-restart (§6.2): fork kills every member, the supervisor gives up, and the pool never holds capacity",
	},
}

// trim1 formats a float with one decimal, trimming a trailing ".0".
func trim1(v float64) string {
	s := fmt.Sprintf("%.1f", v)
	if len(s) > 2 && s[len(s)-2:] == ".0" {
		s = s[:len(s)-2]
	}
	return s
}
