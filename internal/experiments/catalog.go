package experiments

// The catalog experiment: the declarative build pipeline feeding a
// heterogeneous multi-kernel fleet. Phase A specializes the entire
// top-20 Docker Hub catalog through the bunny pipeline on the parallel
// build farm — once cold, once again as a redeploy that should be
// nearly all content-addressed cache hits (a seeded fault storm
// corrupts one artifact and spuriously rejects one spec, so the
// accounted rebuild paths show up in the ledger). Phase B takes three
// of those images as distinct kernel identities — the paper's one-
// kernel-per-app discipline at fleet scale — and runs them side by side
// in every region: mixed bin-packing against host memory, per-identity
// snapshot lineages, per-identity rolling upgrades priced through the
// same build cache, and the usual regional storm (host crash, blackout)
// driving per-identity restores and evacuations.

import (
	"fmt"

	"lupine/internal/bunny"
	"lupine/internal/farm"
	"lupine/internal/faults"
	"lupine/internal/libos"
	"lupine/internal/metrics"
	"lupine/internal/region"
	"lupine/internal/simclock"
	"lupine/internal/snapshot"
	"lupine/internal/vmm"
)

func init() {
	registerStorm("catalog", "Declarative build pipeline + heterogeneous fleet: farm-build the catalog, storm a mixed-identity plane", runCatalog)
}

// catalogWorkers is the build farm's pool width.
const catalogWorkers = 4

// catalogFleetIdents are the catalog images the fleet runs side by
// side: (name, app, extra option) triplets. The redis identity carries
// MULTIPROCESS so its kernel identity differs from the catalog's plain
// redis image; nginx and memcached reuse catalog artifacts outright.
var catalogFleetIdents = []struct {
	name  string
	app   string
	extra []string
	bytes int64 // per-VM commit, mixed sizes for the bin-packer
}{
	{"redis+mp", "redis", []string{"MULTIPROCESS"}, 96 << 20},
	{"nginx", "nginx", nil, 64 << 20},
	{"memcached", "memcached", nil, 48 << 20},
}

// farmPlan arms the build fault sites against the redeploy round: the
// spec-invalid consult fires on its 25th hit (compile 5 of round two)
// and the artifact-corrupt consult on its 3rd resident fetch.
func farmPlan(seed uint64) faults.Plan {
	return faults.Plan{
		Seed: seed ^ 0xCA7A,
		Rules: []faults.Rule{
			{Site: bunny.SiteSpecInvalid, NthHit: 25},
			{Site: bunny.SiteCacheCorrupt, NthHit: 3},
		},
	}
}

// catalogPlan is phase B's regional storm, identical for every row.
func catalogPlan(seed uint64) faults.Plan {
	const ms = simclock.Time(simclock.Millisecond)
	return faults.Plan{
		Seed: seed ^ 0xCA7A106,
		Rules: []faults.Rule{
			// One host in r0 dies: its mixed-identity VMs are replaced from
			// their own lineages in the local store.
			{Site: region.SiteHostCrash, From: 6 * ms, To: 7 * ms, Prob: 1, Param: 1001},
			// r1 blacks out for good: every identity it held evacuates into
			// the survivors from the replicated per-identity lineages.
			{Site: region.SiteBlackout, From: 10 * ms, To: 11 * ms, Prob: 1, Param: 2},
			// One restore dies mid-flight and falls back to a cold boot.
			{Site: snapshot.SiteRestoreFail, NthHit: 4},
		},
	}
}

// catalogIdentity is one fleet identity's build + capture.
type catalogIdentity struct {
	Name string
	Art  *bunny.Artifact
	Snap *snapshot.Snapshot
	Boot simclock.Duration
	Mem  int64
}

// catalogResult is everything the experiment measures (the test and
// bench entry points consume it raw; runCatalog renders it).
type catalogResult struct {
	Cold     *farm.Result // first batch: the whole catalog, empty cache
	Redeploy *farm.Result // second batch: same specs, warm cache + fault storm
	Idents   []catalogIdentity
	Rows     []regionRow
}

// catalogSpecs is the whole top-20 catalog as default-profile specs.
func catalogSpecs() []*bunny.Spec {
	var specs []*bunny.Spec
	for _, name := range appsRegistry() {
		specs = append(specs, bunny.New(name))
	}
	return specs
}

// runCatalogFarm is phase A: cold batch, warm redeploy, then the fleet
// identities compiled through the same cache and captured.
func runCatalogFarm(env *Env, cache *bunny.Cache) (*catalogResult, error) {
	inj, err := faults.New(farmPlan(env.Seed))
	if err != nil {
		return nil, err
	}
	inj.Observe(env.Trace, "catalog/farm")
	f := farm.New(cache, catalogWorkers, inj, env.Trace, env.Metrics)

	res := &catalogResult{}
	if res.Cold, err = f.Run(catalogSpecs(), 0); err != nil {
		return nil, fmt.Errorf("catalog: cold batch: %w", err)
	}
	redeployAt := simclock.Time(0).Add(res.Cold.Makespan)
	if res.Redeploy, err = f.Run(catalogSpecs(), redeployAt); err != nil {
		return nil, fmt.Errorf("catalog: redeploy batch: %w", err)
	}

	// The fleet identities come from the same cache: nginx and memcached
	// are catalog artifacts (hits), redis+mp is a new kernel identity.
	for _, fi := range catalogFleetIdents {
		art, err := cache.Compile(bunny.New(fi.app, fi.extra...), nil, 0)
		if err != nil {
			return nil, fmt.Errorf("catalog: identity %s: %w", fi.name, err)
		}
		vm, snap, err := capture(art.Uni, nil, nil, "")
		if err != nil {
			return nil, fmt.Errorf("catalog: capturing %s: %w", fi.name, err)
		}
		res.Idents = append(res.Idents, catalogIdentity{
			Name: fi.name, Art: art, Snap: snap, Boot: vm.Boot.Total, Mem: vm.Guest.MemUsed(),
		})
	}
	return res, nil
}

// catalogConfig assembles the mixed-identity plane. warm attaches each
// identity's snapshot lineage; upgrades arms the staggered per-identity
// rolling upgrades, each rebuild priced by compiling the identity's v2
// spec through the shared build cache.
func catalogConfig(seed uint64, idents []catalogIdentity, cache *bunny.Cache, warm, upgrades bool) region.Config {
	cfg := region.DefaultConfig()
	cfg.Seed = seed ^ 0xCA7A10F
	cfg.Monitor = vmm.Firecracker()
	cfg.Replicate = warm
	for i, id := range idents {
		rid := region.Identity{
			Name:     id.Name,
			Kernel:   id.Snap.Kernel,
			Monitor:  id.Snap.Monitor,
			VMBytes:  catalogFleetIdents[i].bytes,
			ColdBoot: id.Boot,
		}
		if warm {
			rid.Snapshot = id.Snap
		}
		cfg.Identities = append(cfg.Identities, rid)
	}
	if upgrades {
		const ms = simclock.Time(simclock.Millisecond)
		for i := range idents {
			id, fi := idents[i], catalogFleetIdents[i]
			v2 := bunny.New(fi.app, append(append([]string{}, fi.extra...), "POSIX_MQUEUE")...)
			cfg.Upgrades = append(cfg.Upgrades, region.UpgradeSpec{
				Identity:     id.Name,
				Start:        (20 + 15*simclock.Time(i)) * ms,
				DrainTimeout: 2 * simclock.Millisecond,
				// The k-th rebuild compiles the v2 spec: the first pays a
				// real (kernel-sharing) build, the rest hit the artifact
				// cache — the build pipeline pricing the upgrade plane.
				Rebuild: func(int) simclock.Duration {
					art, err := cache.Compile(v2, nil, 0)
					if err != nil {
						return 0
					}
					return art.Cost
				},
			})
		}
	}
	return cfg
}

// runCatalogStorm executes both phases and returns the raw results.
func runCatalogStorm(env *Env) (*catalogResult, error) {
	cache := bunny.NewCache(db(), 0)
	res, err := runCatalogFarm(env, cache)
	if err != nil {
		return nil, err
	}

	// Row 1: warm per-identity lineages, replicated, rolling upgrades.
	// The scoped row: availability summed across the three regional
	// cells of the mixed-identity plane.
	row, err := runRegionRow(env, "catalog", "lupine-mixed", catalogPlan, true, true,
		catalogConfig(env.Seed, res.Idents, cache, true, true))
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, row)
	env.recordSLO("catalog", row.scope)

	// Row 2: the same mixed plane with no snapshot story — every
	// replacement, evacuee and upgrade replacement pays its identity's
	// measured cold boot.
	row, err = runRegionRow(env, "catalog", "lupine-mixed-cold", catalogPlan, false, false,
		catalogConfig(env.Seed, res.Idents, cache, false, true))
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, row)

	// The unikernel comparators: same mixed plane shape, but the pools
	// die of the workload's first fork wherever the plane restores them.
	for _, s := range libos.All() {
		cfg := catalogConfig(env.Seed, res.Idents, cache, false, false)
		for i := range cfg.Identities {
			cfg.Identities[i].Snapshot = nil
			cfg.Identities[i].ColdBoot = libosBoot(s)
		}
		cfg.Timeline = env.libosTimeline(libosCrash(s, simclock.Millisecond), "catalog/"+s.Name)
		row, err = runRegionRow(env, "catalog", s.Name, catalogPlan, false, false, cfg)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// identSummary renders per-identity placed/upgraded counts in identity
// order, e.g. "3u3/3u3/3u3".
func identSummary(res region.Result) string {
	out := ""
	for i, st := range res.PerIdentity {
		if i > 0 {
			out += "/"
		}
		out += fmt.Sprintf("%du%d", st.Placed, st.Upgraded)
	}
	return out
}

// shedSummary renders per-region shed counts in region order, e.g.
// "0/12/3".
func shedSummary(res region.Result) string {
	out := ""
	for i, rs := range res.PerRegion {
		if i > 0 {
			out += "/"
		}
		out += fmt.Sprintf("%d", rs.Shed)
	}
	return out
}

func runCatalog(env *Env) (fmt.Stringer, error) {
	res, err := runCatalogStorm(env)
	if err != nil {
		return nil, err
	}
	t := &metrics.Table{
		Title: fmt.Sprintf("catalog pipeline: farm-build the top-20, then a mixed-identity regional storm (seed %d, %d workers)",
			env.Seed, catalogWorkers),
		Columns: []string{"system", "availability", "p99 (µs)", "evac (rst/fb/cold)",
			"upgraded", "placed-u-upgraded", "shed r0/r1/r2", "unrecovered"},
	}
	for _, r := range res.Rows {
		t.AddRow(
			r.System,
			metrics.Percent(r.Res.Availability()),
			r.Res.Percentile(99).Microseconds(),
			fmt.Sprintf("%d/%d/%d", r.Res.EvacRestores, r.Res.EvacFallbacks, r.Res.EvacCold),
			r.Res.Upgraded,
			identSummary(r.Res),
			shedSummary(r.Res),
			r.Res.Unrecovered,
		)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("farm, cold batch: %d specs on %d workers, %d kernel builds + %d kernel-cache hits, makespan %.0f µs vs serial %.0f µs (%.1fx)",
			len(res.Cold.Builds), catalogWorkers, res.Cold.Kernels.Builds, res.Cold.Kernels.Hits,
			res.Cold.Makespan.Microseconds(), res.Cold.Serial.Microseconds(), res.Cold.Speedup()),
		fmt.Sprintf("farm, redeploy batch: %.0f%% artifact-cache hit rate (%d hits / %d rebuilds: %d corrupt-artifact, %d spec-invalid), makespan %.0f µs",
			100*res.Redeploy.Stats.HitRate(), res.Redeploy.Stats.Hits, res.Redeploy.Stats.Misses,
			res.Redeploy.Stats.CorruptRebuilds, res.Redeploy.Stats.InvalidRetries,
			res.Redeploy.Makespan.Microseconds()),
		"fleet identities compile through the same content-addressed cache: nginx and memcached reuse catalog artifacts, redis+mp is a new kernel identity",
		"every region runs all three identities on shared hosts (mixed bin-packing against hostmem); each identity keeps its own snapshot lineage, replicated ahead of need on warm rows",
		"storm per row: a host crash in r0 at 6 ms (per-identity local restores), a terminal blackout of r1 at 10 ms (per-identity evacuations), one restore-fault fallback",
		"rolling upgrades run per identity, staggered, surge-first in each region; each rebuild is priced by compiling the identity's v2 spec through the build cache (first pays the build, the rest hit)",
		"placed-u-upgraded: per identity in config order, initial placements and upgrade replacements; comparator rows run the same mixed shape but die of the workload's first fork",
	)
	return t, nil
}
