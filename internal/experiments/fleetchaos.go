package experiments

// The fleetchaos experiment: the fleet-scale analogue of the chaos
// table. Where chaos supervises ONE VM through a seeded storm, fleetchaos
// puts a pool of supervised VMs behind the internal/fleet front-end —
// heartbeat health checks, per-backend circuit breakers, deadline-bounded
// retries under a fleet-wide budget, bounded-queue admission control and
// a mid-storm rolling kernel upgrade — and drives request traffic at it.
// The paper's degradation thesis compounds at fleet scale: a Lupine
// backend that degrades instead of dying keeps its pool near full
// capacity, while unikernel comparators whose first fault is fatal leave
// the balancer nothing to route to.

import (
	"fmt"

	"lupine/internal/core"
	"lupine/internal/ext2"
	"lupine/internal/faults"
	"lupine/internal/fleet"
	"lupine/internal/guest"
	"lupine/internal/libos"
	"lupine/internal/metrics"
	"lupine/internal/simclock"
	"lupine/internal/slo"
	"lupine/internal/vmm"
)

func init() { fleetChaosStorm.register() }

// fleetPoolSize is the number of VMs per pool; the surge instance of the
// rolling upgrade comes on top.
const fleetPoolSize = 3

// fleetBackendPlan is backend i's seeded storm. Backend 0 additionally
// suffers the two dead-on-arrival boots of the chaos storm; every
// backend gets a memory spike staggered 10 ms apart (in guest time, so
// the fleet sees outages rolling across the pool rather than one
// synchronized dip), page-allocation failures and syscall/loopback
// noise. Seeds differ per backend: storms are independent but replayable.
func fleetBackendPlan(seed uint64, i int) faults.Plan {
	const (
		ms = simclock.Time(simclock.Millisecond)
		mb = int64(guest.MiB)
	)
	off := simclock.Time(i) * 10 * ms
	pl := faults.Plan{Seed: seed + uint64(i)*7919}
	if i == 0 {
		pl.Rules = append(pl.Rules,
			faults.Rule{Site: vmm.SiteDeviceProbe, NthHit: 1, Param: 2},
			faults.Rule{Site: ext2.SiteBlockRead, NthHit: 1, Param: -1},
		)
	}
	pl.Rules = append(pl.Rules,
		// The staggered memory spike while the hog is resident: OOM kill
		// with MULTIPROCESS, kernel panic without.
		faults.Rule{Site: guest.SiteOOMPressure, From: 4*ms + off, To: 30*ms + off, Prob: 1, Limit: 1, Param: 350 * mb},
		// One failed page allocation and transient syscall noise.
		faults.Rule{Site: guest.SitePageAlloc, From: 34*ms + off, To: 60*ms + off, Prob: 1, Limit: 1},
		faults.Rule{Site: guest.SiteSyscallTransient, From: 2 * ms, Prob: 0.1, Limit: 3},
		// Loopback weather.
		faults.Rule{Site: guest.SiteLoopbackDrop, From: 3 * ms, To: 60 * ms, Prob: 1, Limit: 1, Param: 300},
		faults.Rule{Site: guest.SiteLoopbackDelay, From: 2 * ms, Prob: 0.15, Limit: 4, Param: 150},
	)
	return pl
}

// fleetWirePlan is the front-end's own storm: lost health probes
// (false negatives) throughout, and a window of lost dispatches placed
// relative to traffic start so every variant faces it regardless of how
// long its pool takes to boot.
func fleetWirePlan(seed uint64, trafficStart simclock.Time) faults.Plan {
	const ms = simclock.Time(simclock.Millisecond)
	return faults.Plan{
		Seed: seed ^ 0xF1EE7,
		Rules: []faults.Rule{
			{Site: fleet.SiteProbeDrop, Prob: 0.02},
			{Site: fleet.SiteDispatchDrop, From: trafficStart + 20*ms, To: trafficStart + 60*ms, Prob: 0.01},
		},
	}
}

// fleetConfig is the front-end tuning; the seed follows -seed so the
// whole experiment replays from one number.
func fleetConfig(seed uint64) fleet.Config {
	cfg := fleet.DefaultConfig()
	cfg.Seed = seed
	return cfg
}

// Rolling-upgrade rebuild pricing: a kernel-cache miss pays a full
// specialized build, a hit shares the image MultiK-style and only pays
// artifact assembly.
const (
	fleetRebuildMiss = 60 * simclock.Millisecond
	fleetRebuildHit  = 4 * simclock.Millisecond
)

// fleetChaosResult is one table row plus what the tests assert on.
type fleetChaosResult struct {
	System    string
	Res       fleet.Result
	Backends  []*fleet.Backend
	MultiProc bool
	Upgraded  bool // a rolling upgrade ran for this system
	Rebuilds  int  // distinct kernels built during the upgrade
	Shared    int  // upgrade rebuilds served from the kernel cache

	scope *slo.Scope // SLO scope, set on the hero row only
}

// fleetBootTime estimates a fresh instance's boot+init latency from the
// cleanest supervised boot in the pool.
func fleetBootTime(backends []*fleet.Backend) simclock.Duration {
	best := simclock.Duration(-1)
	for _, b := range backends {
		if tl := b.Timeline; len(tl.Up) > 0 {
			if d := simclock.Duration(tl.Up[0].From); best < 0 || d < best {
				best = d
			}
		}
	}
	if best < 0 {
		return 10 * simclock.Millisecond
	}
	return best
}

// fleetChaosRun drives backends behind the front-end through its wire
// storm on row track. Traffic starts once the pool is provisioned (the
// cleanest boot plus a margin), so cold-boot latency prices into vm0's
// extended absence rather than into every variant's availability; a
// plan's rolling upgrade begins 10 ms into traffic.
func fleetChaosRun(env *Env, track string, backends []*fleet.Backend, plan *fleet.UpgradePlan, objs ...slo.Objective) (fleetChaosResult, error) {
	cfg := fleetConfig(env.Seed)
	cfg.TrafficStart = simclock.Time(fleetBootTime(backends) + simclock.Millisecond)
	if plan != nil {
		plan.Start = cfg.TrafficStart.Add(10 * simclock.Millisecond)
	}
	winj, err := faults.New(fleetWirePlan(env.Seed, cfg.TrafficStart))
	if err != nil {
		return fleetChaosResult{}, err
	}
	row := env.row(track, winj, sloEvery, objs...)
	f := fleet.New(cfg, backends, plan, winj)
	res := runRow(row, f)
	return fleetChaosResult{Res: res, Backends: f.Backends(), Upgraded: plan != nil, scope: row.scope}, nil
}

var fleetChaosStorm = &storm[fleetChaosResult]{
	id:      "fleetchaos",
	title:   "Fleet resilience: health-checked LB, breakers, rolling upgrade (robustness)",
	systems: []string{"lupine", "lupine+mp", "lupine-general", "microvm"},
	rows: func(env *Env, name string) ([]fleetChaosResult, error) {
		u, err := redis(name)
		if err != nil {
			return nil, err
		}
		track := "fleetchaos/" + name
		backends, err := env.linuxPool(u, track, fleetBackendPlan)
		if err != nil {
			return nil, err
		}
		// The rolling upgrade rebuilds each backend's kernel through one
		// shared cache: the first rebuild pays a full build, the rest
		// share the image (the MultiK observation applied to upgrades).
		cache := core.NewKernelCache(db())
		rebuild := func(i int) simclock.Duration {
			if _, hit, err := cache.Build(u.Spec, lupineOpts(name)); err != nil || !hit {
				return fleetRebuildMiss
			}
			return fleetRebuildHit
		}
		plan := &fleet.UpgradePlan{
			BootTime:     fleetBootTime(backends),
			DrainTimeout: 5 * simclock.Millisecond,
			RebuildTime:  rebuild,
			Surge:        fleet.AlwaysUp(),
		}
		// The hero row's SLO scope: availability and latency SLIs sampled
		// on the fleet's own clock, burns attributed to the wire storm and
		// the pool's supervised damage.
		var objs []slo.Objective
		if name == "lupine+mp" {
			objs = sloFleet(track)
		}
		r, err := fleetChaosRun(env, track, backends, plan, objs...)
		if err != nil {
			return nil, err
		}
		r.System, r.MultiProc = name, u.Kernel.Enabled("MULTIPROCESS")
		st := cache.CacheStats()
		r.Rebuilds, r.Shared = st.Builds, st.Hits
		return []fleetChaosResult{r}, nil
	},
	// The unikernel comparator pools: every backend dies of the
	// workload's first fork and the monitors have no restart story, so
	// the balancer is left routing at nothing. No rolling upgrade either:
	// these monitors cannot rebuild and re-admit a Linux image.
	comparator: func(env *Env, s *libos.System) (fleetChaosResult, error) {
		track := "fleetchaos/" + s.Name
		r, err := fleetChaosRun(env, track, env.libosPool(libosCrash(s, simclock.Millisecond), track), nil)
		r.System = s.Name
		return r, err
	},
	scope: func(r fleetChaosResult) *slo.Scope { return r.scope },
	caption: func(seed uint64) string {
		return fmt.Sprintf("fleet resilience under seeded storms (seed %d, %d VMs + surge, rolling upgrade mid-traffic)",
			seed, fleetPoolSize)
	},
	columns: []string{"system", "availability", "p50 (µs)", "p99 (µs)", "shed rate",
		"retries", "restarts", "breaker opens", "min active", "upgrade"},
	cells: func(r fleetChaosResult) []any {
		upgrade := "-"
		if r.Upgraded {
			upgrade = fmt.Sprintf("%d built, %d shared", r.Rebuilds, r.Shared)
		}
		return []any{r.System, metrics.Percent(r.Res.Availability()), r.Res.Percentile(50).Microseconds(),
			r.Res.Percentile(99).Microseconds(), metrics.Percent(r.Res.ShedRate()), r.Res.Retries,
			r.Res.Restarts, r.Res.BreakerOpens, r.Res.MinActive, upgrade}
	},
	notes: []string{
		"identical per-backend seeded storms per system: vm0 suffers 2 dead boots; every VM gets a staggered 350 MiB memory spike, failed page allocations, syscall and loopback noise; the front-end itself loses probes and dispatches",
		"health checks + breakers route around restarting backends: CONFIG_MULTIPROCESS pools degrade in place and stay near full capacity",
		"unikernel pools die on the workload's first fork with no restart story: the balancer sheds nearly everything",
		"rolling upgrade drains one VM at a time behind surge capacity (min active never below the pool size); kernel-cache sharing makes rebuilds 2 and 3 nearly free",
	},
}
