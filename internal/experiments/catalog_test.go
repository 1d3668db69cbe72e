package experiments

import (
	"testing"

	"lupine/internal/libos"
)

// Two same-seed catalog runs must render identically: the farm schedule,
// the build-fault rebuilds, the mixed-identity storm, the staggered
// rollouts — all of it draws from seeded streams on virtual clocks.
func TestCatalogDeterministic(t *testing.T) {
	t.Parallel()
	a, err := runCatalog(newEnv())
	if err != nil {
		t.Fatal(err)
	}
	b, err := runCatalog(newEnv())
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("same seed, different tables:\n%s\n---\n%s", a, b)
	}
}

// The acceptance bar for the pipeline + fleet storm: the cold batch
// builds the whole catalog with kernel sharing, the redeploy is nearly
// all content-addressed hits except the two armed fault rebuilds, and
// the warm mixed-identity plane rides out the storm and its rollouts
// without denting availability.
func TestCatalogStorm(t *testing.T) {
	t.Parallel()
	res, err := runCatalogStorm(newEnv())
	if err != nil {
		t.Fatal(err)
	}

	// Phase A, cold: every spec is an artifact miss, but apps sharing a
	// kernel config hit the kernel cache, and the farm beats serial.
	cold := res.Cold
	if cold.Stats.Hits != 0 || cold.Stats.Misses != len(cold.Builds) {
		t.Errorf("cold batch: %d hits / %d misses over %d builds",
			cold.Stats.Hits, cold.Stats.Misses, len(cold.Builds))
	}
	if cold.Kernels.Hits == 0 {
		t.Error("cold batch: no kernel sharing across the catalog")
	}
	if cold.Speedup() <= 1.5 {
		t.Errorf("farm speedup %.2fx; %d workers should beat serial", cold.Speedup(), catalogWorkers)
	}

	// Phase A, redeploy: all hits except the armed corrupt-artifact and
	// spec-invalid rebuilds, both accounted.
	re := res.Redeploy
	if re.Stats.CorruptRebuilds != 1 || re.Stats.InvalidRetries != 1 {
		t.Errorf("redeploy rebuilds: corrupt=%d invalid=%d, want 1/1",
			re.Stats.CorruptRebuilds, re.Stats.InvalidRetries)
	}
	if re.Stats.Hits+re.Stats.Misses != len(re.Builds) || re.Stats.Misses != 2 {
		t.Errorf("redeploy: %d hits / %d misses over %d builds",
			re.Stats.Hits, re.Stats.Misses, len(re.Builds))
	}
	if hr := re.Stats.HitRate(); hr < 0.85 {
		t.Errorf("redeploy hit rate %.2f < 0.85", hr)
	}
	if re.Makespan >= cold.Makespan/10 {
		t.Errorf("warm redeploy makespan %v not ≪ cold %v", re.Makespan, cold.Makespan)
	}

	// The fleet identities: nginx and memcached reuse catalog artifacts,
	// redis+mp is a genuinely new kernel identity.
	if len(res.Idents) != len(catalogFleetIdents) {
		t.Fatalf("built %d identities, want %d", len(res.Idents), len(catalogFleetIdents))
	}
	for i, id := range res.Idents {
		if id.Snap == nil || id.Boot <= 0 || id.Mem <= 0 {
			t.Errorf("identity %s: incomplete capture (snap=%v boot=%v mem=%d)",
				id.Name, id.Snap, id.Boot, id.Mem)
		}
		wantHit := i != 0 // redis+mp carries MULTIPROCESS: not a catalog artifact
		if id.Art.CacheHit != wantHit {
			t.Errorf("identity %s: CacheHit = %v, want %v", id.Name, id.Art.CacheHit, wantHit)
		}
	}

	// Phase B rows: the two lupine planes plus one row per comparator.
	if want := 2 + len(libos.All()); len(res.Rows) != want {
		t.Fatalf("storm produced %d rows, want %d", len(res.Rows), want)
	}
	byRow := map[string]regionRow{}
	for _, r := range res.Rows {
		byRow[r.System] = r
		if got := r.Res.OK + r.Res.Shed + r.Res.Failed; got != r.Res.Total {
			t.Errorf("%s: conservation broken: OK %d + Shed %d + Failed %d != Total %d",
				r.System, r.Res.OK, r.Res.Shed, r.Res.Failed, r.Res.Total)
		}
		if len(r.Res.PerIdentity) != len(catalogFleetIdents) {
			t.Errorf("%s: %d per-identity stats, want %d",
				r.System, len(r.Res.PerIdentity), len(catalogFleetIdents))
		}
	}

	warm := byRow["lupine-mixed"]
	if av := warm.Res.Availability(); av < 0.99 {
		t.Errorf("lupine-mixed: availability %.3f < 0.99 through storm + rollouts", av)
	}
	if warm.Res.Unrecovered != 0 {
		t.Errorf("lupine-mixed: %d unrecovered placements", warm.Res.Unrecovered)
	}
	// Warm evacuations restore from replicated lineages (one armed
	// restore-fault fallback aside); they never cold-boot.
	if warm.Res.EvacRestores == 0 || warm.Res.EvacCold != 0 {
		t.Errorf("lupine-mixed: evac rst/fb/cold = %d/%d/%d, want restores and no cold boots",
			warm.Res.EvacRestores, warm.Res.EvacFallbacks, warm.Res.EvacCold)
	}
	// Every identity is placed in every region and every rollout
	// replaces every live backend of its identity.
	for _, st := range warm.Res.PerIdentity {
		if st.Placed < 3 {
			t.Errorf("lupine-mixed: %s placed %d times, want one per region", st.Name, st.Placed)
		}
		if st.Upgraded == 0 {
			t.Errorf("lupine-mixed: %s never upgraded", st.Name)
		}
	}
	if warm.Res.UpgradeDone < 0 {
		t.Error("lupine-mixed: rollouts never completed")
	}

	cold2 := byRow["lupine-mixed-cold"]
	if cold2.Res.EvacRestores != 0 {
		t.Errorf("lupine-mixed-cold: %d snapshot restores without a lineage", cold2.Res.EvacRestores)
	}
	if warm.Res.Upgraded < cold2.Res.Upgraded {
		t.Errorf("warm plane upgraded %d < cold plane %d", warm.Res.Upgraded, cold2.Res.Upgraded)
	}

	// The comparators die of the workload's first fork: the plane keeps
	// restoring them, but availability collapses below the lupine rows.
	for _, s := range libos.All() {
		row := byRow[s.Name]
		if av := row.Res.Availability(); av >= warm.Res.Availability() {
			t.Errorf("%s: availability %.3f should trail lupine-mixed", s.Name, av)
		}
	}
}

func BenchmarkCatalog(b *testing.B) { benchHeadline(b, "catalog") }
