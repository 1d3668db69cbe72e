package experiments

// The breach experiment: the specialization story turned adversarial.
// One seeded exploit campaign — syscall probes, payload escalations,
// lateral movement over the fabric — runs against the multi-region
// plane, and the only thing that varies per row is the victim kernel's
// build. Table-1 gating deflects every probe whose syscall the config
// dropped; priced hardening options (ASLR/KASLR, W^X) discount the
// payloads that do land, at a measured boot-time and image-size cost;
// ring-0 KML turns one compromise into a host takeover. The containment
// ladder answers: canary detection, breaker quarantine with a fabric
// egress cut, repave from the known-good snapshot lineage, and a
// region-level evacuation when compromise density crosses the line. The
// libos comparators expose everything, harden nothing, and — with no
// attested lineage to restore — stay compromised for good.

import (
	"fmt"

	"lupine/internal/attack"
	"lupine/internal/bunny"
	"lupine/internal/faults"
	"lupine/internal/libos"
	"lupine/internal/metrics"
	"lupine/internal/region"
	"lupine/internal/simclock"
	"lupine/internal/slo"
	"lupine/internal/vmm"
)

func init() { breachStorm.register() }

// breachVectors are the campaign's syscall aims. The first four are on
// redis+mp's Table-1 surface; the rest are gated off by the build — a
// libos single protection domain exposes all nine.
func breachVectors() []string {
	return []string{
		"epoll_wait", "futex", "timerfd_create", "flock", // exposed on redis+mp
		"bpf", "io_setup", "add_key", "shmget", "mq_open", // gated off
	}
}

// breachCampaign is the shared campaign shape; the plan below paces it.
func breachCampaignConfig(seed uint64) attack.Config {
	cfg := attack.DefaultConfig()
	cfg.Vectors = breachVectors()
	cfg.Seed = seed ^ 0xB4EAC4
	return cfg
}

// breachPlan is the identical exploit schedule every row faces: probe
// windows alternating exposed and gated vectors, payloads armed at 0.9,
// lateral probes at 0.6, and one mid-campaign info leak voiding the
// victim's hardening for a single payload.
func breachPlan(seed uint64) faults.Plan {
	const ms = simclock.Time(simclock.Millisecond)
	return faults.Plan{
		Seed: seed ^ 0xB4EAC,
		Rules: []faults.Rule{
			// Four probe windows, Param = 1-based vector index: epoll_wait
			// and futex reach redis+mp's surface; bpf and add_key only land
			// on kernels that never dropped them.
			{Site: attack.SiteSyscallProbe, From: 3 * ms, To: 8 * ms, Prob: 0.5, Param: 1},
			{Site: attack.SiteSyscallProbe, From: 8 * ms, To: 13 * ms, Prob: 0.5, Param: 5},
			{Site: attack.SiteSyscallProbe, From: 13 * ms, To: 18 * ms, Prob: 0.4, Param: 2},
			{Site: attack.SiteSyscallProbe, From: 18 * ms, To: 22 * ms, Prob: 0.4, Param: 7},
			// Payloads usually arm; one seeded info leak mid-campaign
			// bypasses ASLR/W^X outright for the payload that drew it.
			{Site: attack.SitePayload, Prob: 0.9},
			{Site: attack.SiteHardeningBypass, NthHit: 3},
			// Lateral spread rides the futex vector over the real fabric.
			{Site: attack.SiteLateral, Prob: 0.6, Param: 2},
		},
	}
}

// breachRow is one system under the campaign.
type breachRow struct {
	System    string
	Hardening string
	Boot      simclock.Duration // measured clean boot of the row's image
	Res       region.Result

	scope       *slo.Scope    // SLO scope, set on the unhardened lupine+mp row only
	firstRepave simclock.Time // first repave landing on the scoped row; -1 if none
}

// breachSloEvery is the breach scope's sample interval: finer than the
// default so the containment alert aligns to a sample boundary that
// still precedes the first repave landing — the property the tests pin.
const breachSloEvery = 50 * simclock.Microsecond

// breachRegionConfig is the shared plane shape.
func breachRegionConfig(seed uint64) region.Config {
	cfg := region.DefaultConfig()
	cfg.Seed = seed ^ 0xB4EA0F
	return cfg
}

// runBreachRow drives one configured plane through the campaign. The
// scoped row carries the experiment's SLO scope: a containment
// objective (deflections and detections are good events, compromises
// burn the budget) beside the regional availability objective, and the
// first repave landing is kept so the tests can assert the alert fired
// before the plane finished recovering.
func runBreachRow(env *Env, name, hardening string, boot simclock.Duration, scoped bool, cfg region.Config) (breachRow, error) {
	track := "breach/" + name
	var objs []slo.Objective
	if scoped {
		objs = []slo.Objective{{
			Name:   "containment",
			Good:   []string{track + ".deflects", track + ".detects"},
			Bad:    []string{track + ".compromises"},
			Target: 0.9,
			Rules:  slo.DefaultRules(simclock.Millisecond, 5, 2),
		}, sloRegionAvailability(track, cfg.Regions, 0.99, slo.DefaultRules(simclock.Millisecond, 10, 4))}
	}
	res, r, err := env.runRegion(track, breachPlan(env.Seed), cfg, breachSloEvery, objs...)
	if err != nil {
		return breachRow{}, err
	}
	row := breachRow{System: name, Hardening: hardening, Boot: boot, Res: res, scope: r.scope, firstRepave: -1}
	if r.scope != nil {
		for _, e := range r.tr.EventsSince(0) {
			if e.Cat == "region" && e.Name == "repave" && e.Track == track {
				if row.firstRepave < 0 || e.At < row.firstRepave {
					row.firstRepave = e.At
				}
			}
		}
	}
	return row, nil
}

// breachLupineRow builds one lupine variant through the declarative
// pipeline (so hardening is priced kconfig, not a flag), captures its
// warm snapshot, derives its exploit surface from the built image, and
// runs the campaign against it.
func breachLupineRow(env *Env, cache *bunny.Cache, name, profile, hardening string, scoped bool, evacDensity float64) (breachRow, error) {
	spec := &bunny.Spec{
		App:       "redis",
		Profile:   profile,
		Options:   []string{"MULTIPROCESS"},
		Hardening: hardening,
	}
	spec.Normalize()
	art, err := cache.Compile(spec, nil, 0)
	if err != nil {
		return breachRow{}, fmt.Errorf("breach: compiling %s: %w", name, err)
	}
	vm, snap, err := capture(art.Uni, nil, nil, "")
	if err != nil {
		return breachRow{}, fmt.Errorf("breach: capturing %s: %w", name, err)
	}
	coldBoot := vm.Boot.Total
	sfc := attack.FromImage(art.Uni.Kernel)
	cfg := breachRegionConfig(env.Seed)
	cfg.Snapshot = snap
	cfg.Monitor = vmm.Firecracker()
	cfg.ColdBoot = coldBoot
	// Hardening's data-path price: canaries and usercopy checks on every
	// request, on top of the boot-time cost already in coldBoot.
	cfg.Cell.ServiceTime = simclock.Duration(float64(cfg.Cell.ServiceTime) * attack.RuntimeScale(hardening))
	cfg.Breach = &region.BreachConfig{
		Campaign:        breachCampaignConfig(env.Seed),
		Surface:         func(int) attack.Surface { return sfc },
		EvacuateDensity: evacDensity,
	}
	return runBreachRow(env, name, hardening, coldBoot, scoped, cfg)
}

var breachStorm = &storm[breachRow]{
	id:      "breach",
	title:   "Security containment: seeded exploit campaign vs hardening level, quarantine + repave ladder (robustness)",
	systems: []string{"lupine"},
	rows: func(env *Env, system string) ([]breachRow, error) {
		cache := bunny.NewCache(db(), 0)
		var out []breachRow
		// The hardening sweep on the paper's lupine+mp kernel: same plane,
		// same campaign, increasingly expensive — and increasingly
		// survivable — builds.
		for _, level := range attack.HardeningLevels() {
			name := system + "+mp"
			if level != attack.HardeningOff {
				name += "+" + level
			}
			r, err := breachLupineRow(env, cache, name, bunny.ProfileNoKML, level, level == attack.HardeningOff, 0)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
		// The KML variant: the same unhardened build as row one, but the
		// app runs ring 0 — a landed payload IS a monitor compromise, and
		// after the escalation window the host and everything on it. The
		// only difference from lupine+mp/off is the privilege level; the
		// only difference in the outcome is the blast radius. Compromise
		// density past 0.6 evacuates the region wholesale.
		r, err := breachLupineRow(env, cache, system+"+kml", bunny.ProfileKML, attack.HardeningOff, false, 0.6)
		if err != nil {
			return nil, err
		}
		return append(out, r), nil
	},
	// The libos comparators: one protection domain exposes every vector,
	// no priced hardening discounts the payloads, and with no snapshot
	// lineage there is nothing attested to repave from — quarantine cages
	// the compromise, the capacity is gone for good. (Their pools serve
	// the workload here; the fork death of §6.2 is regionfail's story.)
	comparator: func(env *Env, s *libos.System) (breachRow, error) {
		boot := libosBoot(s)
		cfg := breachRegionConfig(env.Seed)
		cfg.ColdBoot = boot
		cfg.Breach = &region.BreachConfig{Campaign: breachCampaignConfig(env.Seed)}
		return runBreachRow(env, s.Name, "-", boot, false, cfg)
	},
	scope: func(r breachRow) *slo.Scope { return r.scope },
	caption: func(seed uint64) string {
		return fmt.Sprintf("exploit campaign vs hardening level: deflection, containment and the price (seed %d, 3 regions)",
			seed)
	},
	columns: []string{"system", "hardening", "boot (µs)", "availability",
		"deflected/landed", "compromised (p/l/e)", "contained", "quarantine (def)",
		"repave (rst/fb/den)", "dwell p50 (µs)", "region evacs", "unrecovered"},
	cells: func(r breachRow) []any {
		a, b := r.Res.Attack, r.Res.Breach
		return []any{r.System, r.Hardening, r.Boot.Microseconds(), metrics.Percent(r.Res.Availability()),
			fmt.Sprintf("%d/%d", a.Deflected, a.Landed),
			fmt.Sprintf("%d (%d/%d/%d)", a.Compromised, a.ByProbe, a.ByLateral, a.ByEscalation),
			metrics.Percent(r.Res.Containment()),
			fmt.Sprintf("%d (%d)", b.Quarantined, b.QuarantineDeferred),
			fmt.Sprintf("%d/%d/%d", b.RepaveRestores, b.RepaveFallbacks, b.RepaveDenied),
			r.Res.DwellPercentile(50).Microseconds(), b.RegionEvacs, b.IsolatedOnly + b.StillServing}
	},
	notes: []string{
		"identical seeded campaign per row: probe windows alternating exposed (epoll_wait, futex) and config-gated (bpf, add_key) vectors, payloads armed at 0.9, lateral spread over the real fabric at 0.6, one mid-campaign info leak voiding hardening for a single payload",
		"deflected/landed is Table-1 gating at work: a probe against a syscall the build dropped bounces before any payload runs — the libos single protection domain deflects nothing",
		"hardening levels are priced kconfig options through the declarative pipeline (boot µs and image bytes), plus a data-path service-time scale; aslr = RANDOMIZE_BASE, full adds W^X, stack protector and usercopy checks",
		"the ladder: canary anomalies detect, the breaker force-opens and the NIC egress is cut (lateral probes die on the wire), then a repave restores the identity's known-good lineage; contained = quarantined AND repaved",
		"lupine+kml is the unhardened build at ring 0: a landed payload owns the monitor, and past the escalation window the host — co-located guests fall at once, and compromise density over 0.6 evacuates the region deliberately (no failover charge)",
		"libos comparators have no snapshot lineage to attest a repave from: quarantine cages the compromise but the backend is never replaced — unrecovered counts caged-forever plus still-serving compromises",
	},
}
