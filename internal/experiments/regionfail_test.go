package experiments

import (
	"strings"
	"testing"
)

// Two same-seed regional storms must render identically: arrivals,
// probe verdicts, trunk cuts, evacuation landings — everything draws
// from seeded streams on the one virtual event heap.
func TestRegionFailDeterministic(t *testing.T) {
	t.Parallel()
	a := runExp(t, "regionfail")
	b := runExp(t, "regionfail")
	if a.String() != b.String() {
		t.Fatalf("same seed, different tables:\n%s\n---\n%s", a, b)
	}
}

// The acceptance bar: the warm lupine+mp plane holds ≥90%% global
// availability with zero unrecovered crashes through the blackout +
// partition storm, evacuates via snapshot restores (cold boots only on
// the armed restore-fault fallback), and the partition's false trip
// heals into a rejoin instead of a second evacuation.
func TestRegionFailContrast(t *testing.T) {
	t.Parallel()
	results, err := regionFailStorm.run(newEnv())
	if err != nil {
		t.Fatal(err)
	}
	byRow := map[string]regionRow{}
	for _, r := range results {
		byRow[r.System] = r
		res := r.Res
		if got := res.OK + res.Shed + res.Failed; got != res.Total {
			t.Errorf("%s: conservation broken: OK %d + Shed %d + Failed %d != Total %d",
				r.System, res.OK, res.Shed, res.Failed, res.Total)
		}
		// Identical storm per row: one true failover (the blackout) and
		// one false trip (the partition), which must rejoin.
		if res.Failovers != 2 || len(res.Detect) != 1 || res.FalseTrips != 1 {
			t.Errorf("%s: failovers=%d detect=%d falsetrips=%d, want 2/1/1",
				r.System, res.Failovers, len(res.Detect), res.FalseTrips)
		}
		if res.Rejoins != 1 {
			t.Errorf("%s: partitioned region should rejoin once, got %d", r.System, res.Rejoins)
		}
	}

	warm, ok := byRow["lupine+mp"]
	if !ok {
		t.Fatal("missing lupine+mp row")
	}
	if av := warm.Res.Availability(); av < 0.90 {
		t.Errorf("lupine+mp: availability %.3f < 0.90 through the regional storm", av)
	}
	if warm.Res.Unrecovered != 0 {
		t.Errorf("lupine+mp: %d unrecovered crashes", warm.Res.Unrecovered)
	}
	// Evacuation completes via restores; the single cold boot is the
	// armed restore-fault falling back, never a missing replica.
	if warm.Res.Evacuated == 0 {
		t.Fatal("lupine+mp: blackout should force an evacuation")
	}
	if warm.Res.EvacCold != 0 {
		t.Errorf("lupine+mp: %d evacuations found no replica — replication should have seeded every store", warm.Res.EvacCold)
	}
	if warm.Res.EvacFallbacks != 1 || warm.Res.EvacRestores != warm.Res.Evacuated-1 {
		t.Errorf("lupine+mp: evac restores=%d fallbacks=%d of %d, want all-but-one restored",
			warm.Res.EvacRestores, warm.Res.EvacFallbacks, warm.Res.Evacuated)
	}
	// The host crash recovered in-region.
	if warm.Res.HostCrashes != 1 || warm.Res.CrashRecovered != warm.Res.CrashKilled {
		t.Errorf("lupine+mp: crash recovery broken: crashes=%d killed=%d recovered=%d",
			warm.Res.HostCrashes, warm.Res.CrashKilled, warm.Res.CrashRecovered)
	}

	// The cold plane pays boots instead of restores, and its median
	// evacuee takes orders of magnitude longer to land.
	cold, ok := byRow["lupine+mp-cold"]
	if !ok {
		t.Fatal("missing lupine+mp-cold row")
	}
	if cold.Res.EvacRestores != 0 || cold.Res.EvacCold != cold.Res.Evacuated {
		t.Errorf("lupine+mp-cold: evacuation should be all cold boots: restores=%d cold=%d of %d",
			cold.Res.EvacRestores, cold.Res.EvacCold, cold.Res.Evacuated)
	}
	if w, c := warm.Res.EvacReadyPercentile(50), cold.Res.EvacReadyPercentile(50); w*10 > c {
		t.Errorf("warm median evacuee (%v) should be >10x faster than cold (%v)", w, c)
	}

	// Comparators: the pools die of the workload's first fork, so no
	// amount of failover machinery buys availability.
	for _, name := range []string{"hermitux", "osv-zfs", "rump"} {
		r, ok := byRow[name]
		if !ok {
			t.Fatalf("missing %s comparator row", name)
		}
		if av, worst := r.Res.Availability(), warm.Res.Availability(); av >= worst {
			t.Errorf("%s availability %.3f should be below lupine+mp %.3f", name, av, worst)
		}
		shed := 0
		for _, rs := range r.Res.PerRegion {
			shed += rs.Shed
		}
		if shed == 0 {
			t.Errorf("%s: dead pools should shed at every gateway", name)
		}
	}
}

// The storm's telemetry must carry the control-plane history: blackout
// and failover instants, evacuation landings, and a flight-recorder
// dump cut at the failover verdict.
func TestRegionFailTraceHasControlHistory(t *testing.T) {
	t.Parallel()
	env := withTelemetry()
	tr := env.Trace
	if _, err := regionFailStorm.run(env); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, e := range tr.EventsSince(0) {
		if strings.HasPrefix(e.Track, "regionfail/") {
			counts[e.Name]++
		}
	}
	for _, name := range []string{"blackout", "failover", "rejoin", "evacuate", "evac-restore", "crash-restore"} {
		if counts[name] == 0 {
			t.Errorf("no %q instants on regionfail tracks", name)
		}
	}
	routes := 0
	for _, s := range tr.Spans() {
		if s.Name == "route" && strings.HasPrefix(s.Track, "regionfail/") {
			routes++
		}
	}
	if routes == 0 {
		t.Error("no route spans on regionfail tracks")
	}
	dumps := 0
	for _, d := range tr.Dumps() {
		if strings.Contains(d.Reason, "failover:") {
			dumps++
		}
	}
	if dumps == 0 {
		t.Error("no flight-recorder dump cut at a failover verdict")
	}
}

func BenchmarkRegionFail(b *testing.B) { benchHeadline(b, "regionfail") }
