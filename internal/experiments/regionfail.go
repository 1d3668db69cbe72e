package experiments

// The regionfail experiment: the multi-region control plane under a
// regional storm. Everything the repo has built — specialized kernels,
// snapshot warm pools, fleet cells with breakers and admission shed,
// the virtual fabric — composes one level up into three regions behind
// a global router, and then a region dies. The storm is a host crash in
// the home region, a full blackout of a second region, and a transient
// inter-region partition against the third; the router has to detect
// the blackout through unanswered probes, surge-route the dead region's
// share to the survivors, and evacuate its backends there from the
// replicated snapshots. The comparison is the paper's at a new scale:
// lupine+mp with a warm replicated pool evacuates in restore time and
// holds availability; the same plane without snapshots pays cold boots
// for every replacement; the unikernel comparators die of the
// workload's first fork wherever the control plane restores them.

import (
	"fmt"

	"lupine/internal/fabric"
	"lupine/internal/faults"
	"lupine/internal/libos"
	"lupine/internal/metrics"
	"lupine/internal/region"
	"lupine/internal/simclock"
	"lupine/internal/slo"
	"lupine/internal/snapshot"
	"lupine/internal/vmm"
)

func init() { regionFailStorm.register() }

// The storm's cast, by 0-based region index: r0 takes a host crash, r1
// blacks out for good, r2 suffers a transient asymmetric partition.
const (
	regionFailCrashed     = 0
	regionFailBlackedOut  = 1
	regionFailPartitioned = 2
)

// regionFailPlan is the regional storm, identical for every row. Times
// are absolute virtual time; traffic runs 2–102 ms.
func regionFailPlan(seed uint64) faults.Plan {
	const ms = simclock.Time(simclock.Millisecond)
	return faults.Plan{
		Seed: seed ^ 0x4E610,
		Rules: []faults.Rule{
			// One host in the home region dies early: its VMs are replaced
			// in-region from the local warm pool (restore hit #1).
			{Site: region.SiteHostCrash, From: 6 * ms, To: 7 * ms, Prob: 1,
				Param: int64(regionFailCrashed+1)*1000 + 1},
			// The blackout: r1 goes dark mid-traffic. Terminal — the only
			// exit is evacuation into the survivors.
			{Site: region.SiteBlackout, From: 10 * ms, To: 11 * ms, Prob: 1,
				Param: int64(regionFailBlackedOut + 1)},
			// A 6 ms asymmetric partition INTO r2: its probes and ingress
			// vanish while its egress still flows. Shorter than the
			// evacuation dwell, so the router's false trip must heal into
			// a rejoin, not a second mass migration.
			{Site: fabric.SiteTrunkCut, From: 30 * ms, To: 36 * ms, Prob: 1,
				Param: region.CutInto(regionFailPartitioned)},
			// One evacuation restore dies mid-flight and falls back to a
			// cold boot — the accounted fallback path. The crashed host
			// carries two VMs, so their replacements consume restore hits
			// 1–2 and the evacuation wave draws hits 3–5.
			{Site: snapshot.SiteRestoreFail, NthHit: 4},
		},
	}
}

// regionFailConfig is the shared plane shape; warm-pool fields are the
// per-variant part.
func regionFailConfig(seed uint64) region.Config {
	cfg := region.DefaultConfig()
	cfg.Seed = seed ^ 0x4E610F
	return cfg
}

// regionRow is one row of a region-plane storm (regionfail, catalog)
// plus what the tests assert on.
type regionRow struct {
	System string
	Warm   bool // snapshot lineages replicated ahead of need
	Res    region.Result

	scope *slo.Scope // SLO scope, set on the experiment's scoped row only
}

// runRegionRow drives one configured plane through plan's storm on lane
// experiment/name. The scoped row carries the experiment's SLO scope:
// availability summed across the regional cells, so a blackout burns
// the budget until the survivors absorb the dead region's share. Three
// nines with a 2 ms scale: the badness is a thin burst right after the
// blackout, so the slow rule's window must be wide enough to catch it
// and reach back to the fault.
func runRegionRow(env *Env, experiment, name string, plan func(seed uint64) faults.Plan, warm, scoped bool, cfg region.Config) (regionRow, error) {
	track := experiment + "/" + name
	var objs []slo.Objective
	if scoped {
		objs = append(objs, sloRegionAvailability(track, cfg.Regions, 0.999, slo.DefaultRules(2*simclock.Millisecond, 10, 4)))
	}
	res, row, err := env.runRegion(track, plan(env.Seed), cfg, sloEvery, objs...)
	if err != nil {
		return regionRow{}, err
	}
	return regionRow{System: name, Warm: warm, Res: res, scope: row.scope}, nil
}

var regionFailStorm = &storm[regionRow]{
	id:      "regionfail",
	title:   "Multi-region failover: blackout + partition storm, evacuation restore vs cold (robustness)",
	systems: []string{"lupine+mp"},
	rows: func(env *Env, name string) ([]regionRow, error) {
		u, err := redis(name)
		if err != nil {
			return nil, err
		}
		vm, snap, err := capture(u, nil, nil, "")
		if err != nil {
			return nil, fmt.Errorf("regionfail: capturing snapshot: %w", err)
		}
		coldBoot := vm.Boot.Total

		// The warm row, the full story: warm pool captured once,
		// replicated to every region ahead of need, evacuation restores
		// from the replicas.
		cfg := regionFailConfig(env.Seed)
		cfg.Snapshot = snap
		cfg.Monitor = vmm.Firecracker()
		cfg.Replicate = true
		cfg.ColdBoot = coldBoot
		warm, err := runRegionRow(env, "regionfail", name, regionFailPlan, true, true, cfg)
		if err != nil {
			return nil, err
		}

		// The cold row: the same kernel and plane with no snapshot story —
		// every replacement and every evacuee pays the full measured boot.
		cfg = regionFailConfig(env.Seed)
		cfg.ColdBoot = coldBoot
		cold, err := runRegionRow(env, "regionfail", name+"-cold", regionFailPlan, false, false, cfg)
		if err != nil {
			return nil, err
		}
		return []regionRow{warm, cold}, nil
	},
	// The unikernel comparators: their pools boot, then die of the
	// workload's first fork (§6.2) — and keep dying wherever the control
	// plane restores them, because the kernel, not the region, is what
	// cannot run the workload.
	comparator: func(env *Env, s *libos.System) (regionRow, error) {
		cfg := regionFailConfig(env.Seed)
		cfg.ColdBoot = libosBoot(s)
		cfg.Timeline = env.libosTimeline(libosCrash(s, simclock.Millisecond), "regionfail/"+s.Name)
		return runRegionRow(env, "regionfail", s.Name, regionFailPlan, false, false, cfg)
	},
	scope: func(r regionRow) *slo.Scope { return r.scope },
	caption: func(seed uint64) string {
		return fmt.Sprintf("multi-region availability through a host crash, a full-region blackout and an inter-region partition (seed %d, 3 regions)",
			seed)
	},
	columns: []string{"system", "warm pool", "availability", "p99 (µs)", "failovers",
		"detect p99 (µs)", "evac (rst/fb/cold)", "evac p50 (µs)", "evac wall (µs)", "shed r0/r1/r2", "unrecovered"},
	cells: func(r regionRow) []any {
		warm := "no"
		if r.Warm {
			warm = "yes"
		}
		return []any{r.System, warm, metrics.Percent(r.Res.Availability()),
			r.Res.Percentile(99).Microseconds(), r.Res.Failovers, r.Res.DetectPercentile(99).Microseconds(),
			fmt.Sprintf("%d/%d/%d", r.Res.EvacRestores, r.Res.EvacFallbacks, r.Res.EvacCold),
			r.Res.EvacReadyPercentile(50).Microseconds(), r.Res.EvacDuration().Microseconds(),
			shedSummary(r.Res), r.Res.Unrecovered}
	},
	notes: []string{
		"identical storm per row: a host crash in r0 at 6 ms, a terminal blackout of r1 at 10 ms, and a 6 ms asymmetric partition INTO r2 at 30 ms (its egress still flows)",
		"the router learns of the blackout only through unanswered gateway probes crossing the inter-region trunks; detect p99 is dark-instant to dead-declaration",
		"the partition is shorter than the evacuation dwell: the false trip must heal into a rejoin — evacuations here all come from the real blackout",
		"evac (rst/fb/cold): restores from the region-local snapshot replica / restore-fault fallbacks to cold boot / cold boots because no replica exists; evac p50 is the median per-evacuee provisioning cost, evac wall the whole wave (fallback-bound on the warm row)",
		"warm rows replicate the home region's capture to every peer store ahead of need, priced at the inter-region bandwidth; cold rows pay the measured boot per evacuee",
		"unikernel comparator pools die of the workload's first fork and keep dying wherever the plane restores them — the kernel, not the region, is what cannot serve",
	},
}
