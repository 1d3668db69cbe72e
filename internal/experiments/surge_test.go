package experiments

import (
	"strings"
	"testing"
)

// TestSurgeDeterministic renders the whole surge comparison twice and
// requires bit-identical output — same seed, same spike, same fallbacks.
func TestSurgeDeterministic(t *testing.T) {
	t.Parallel()
	e, err := Lookup("surge")
	if err != nil {
		t.Fatal(err)
	}
	first, err := e.Run(newEnv())
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Run(newEnv())
	if err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Errorf("surge output differs between identical seeded runs:\n--- first\n%s\n--- second\n%s",
			first.String(), second.String())
	}
}

// TestSurgeAcceptance pins the experiment's acceptance criteria: restore
// at least 10x faster than cold boot, snapshot pools reaching capacity
// ahead of cold pools, CoW pool memory below N full copies, and the
// seeded snapshot storm falling back with explicit accounting.
func TestSurgeAcceptance(t *testing.T) {
	t.Parallel()
	results, err := surgeStorm.run(newEnv())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]surgeResult{}
	for _, r := range results {
		byName[r.System] = r
		if got := r.Res.OK + r.Res.Shed + r.Res.Failed; got != r.Res.Total {
			t.Errorf("%s: request conservation broken: %d resolved of %d offered", r.System, got, r.Res.Total)
		}
	}

	for _, name := range []string{"lupine", "lupine-general", "microvm"} {
		snap, ok := byName[name+"+snap"]
		if !ok {
			t.Fatalf("no %s+snap row", name)
		}
		cold, ok := byName[name]
		if !ok {
			t.Fatalf("no %s row", name)
		}

		// Restore must be >= 10x faster than the cold boot it replaces.
		if snap.Restore <= 0 || 10*snap.Restore > snap.ColdBoot {
			t.Errorf("%s: restore %v not 10x faster than cold boot %v", name, snap.Restore, snap.ColdBoot)
		}
		// The snapshot pool reaches Max capacity ahead of the cold pool.
		st, ct := snap.TimeToCapacity(), cold.TimeToCapacity()
		if st < 0 {
			t.Errorf("%s+snap: pool never reached capacity", name)
		} else if ct >= 0 && st >= ct {
			t.Errorf("%s: snapshot time-to-capacity %v not ahead of cold %v", name, st, ct)
		}
		// A clean snapshot run restores every launch and never falls back.
		if snap.Fallbacks != 0 || snap.Res.ColdBoots != 0 || snap.Res.Restores == 0 {
			t.Errorf("%s+snap: fallbacks=%d coldboots=%d restores=%d, want clean restores only",
				name, snap.Fallbacks, snap.Res.ColdBoots, snap.Res.Restores)
		}
		// CoW: the restored pool's aggregate memory stays below N full
		// copies of the cold RSS, while the cold pool pays full freight.
		if snap.AggRSS >= snap.NaiveRSS {
			t.Errorf("%s+snap: CoW pool RSS %d not below naive %d", name, snap.AggRSS, snap.NaiveRSS)
		}
		if cold.AggRSS != cold.NaiveRSS {
			t.Errorf("%s: cold pool RSS %d != naive %d (no sharing without snapshots)", name, cold.AggRSS, cold.NaiveRSS)
		}
		// Identical spike, faster capacity: availability must not be worse.
		if snap.Res.Availability() < cold.Res.Availability() {
			t.Errorf("%s: snapshot availability %.3f below cold %.3f",
				name, snap.Res.Availability(), cold.Res.Availability())
		}
	}

	// The seeded snapshot-plane storm: exactly one corrupt artifact and
	// one mid-flight restore death, both falling back to accounted cold
	// boots, and the ramp pays for it.
	storm, ok := byName["lupine+snap/storm"]
	if !ok {
		t.Fatal("no lupine+snap/storm row")
	}
	if storm.Fallbacks != 2 || storm.Res.ColdBoots != 2 {
		t.Errorf("storm fallbacks=%d coldboots=%d, want exactly 2 of each from the seeded plan",
			storm.Fallbacks, storm.Res.ColdBoots)
	}
	clean := byName["lupine+snap"]
	if st, ct := clean.TimeToCapacity(), storm.TimeToCapacity(); ct >= 0 && st >= ct {
		t.Errorf("clean ramp %v not ahead of storm ramp %v", st, ct)
	}

	// The libos comparators crash-restart until the supervisor gives up:
	// no restores anywhere, and availability far below any snapshot pool.
	libosSeen := 0
	for name, r := range byName {
		if strings.Contains(name, "snap") || strings.Contains(name, "lupine") || name == "microvm" {
			continue
		}
		libosSeen++
		if r.Snapshots || r.Res.Restores != 0 {
			t.Errorf("%s: libos comparator restored from a snapshot", name)
		}
		if r.Res.Availability() >= clean.Res.Availability() {
			t.Errorf("%s availability %.3f not below lupine+snap %.3f",
				name, r.Res.Availability(), clean.Res.Availability())
		}
	}
	if libosSeen == 0 {
		t.Error("no libos comparator rows")
	}
}

// BenchmarkSurge runs the full scale-out comparison as the repeatable
// benchmark; reported metrics contrast the flagship lupine pool with and
// without snapshots: time-to-capacity (virtual ms), the restore/cold
// speedup factor, and the CoW memory saving at peak.
func BenchmarkSurge(b *testing.B) {
	var sink string
	for i := 0; i < b.N; i++ {
		results, err := surgeStorm.run(newEnv())
		if err != nil {
			b.Fatal(err)
		}
		byName := map[string]surgeResult{}
		for _, r := range results {
			byName[r.System] = r
		}
		snap, cold := byName["lupine+snap"], byName["lupine"]
		if d := snap.TimeToCapacity(); d >= 0 {
			b.ReportMetric(d.Milliseconds(), "sim-snap-ttc-ms")
		}
		if d := cold.TimeToCapacity(); d >= 0 {
			b.ReportMetric(d.Milliseconds(), "sim-cold-ttc-ms")
		}
		if snap.Restore > 0 {
			b.ReportMetric(float64(snap.ColdBoot)/float64(snap.Restore), "sim-restore-speedup")
		}
		if snap.NaiveRSS > 0 {
			b.ReportMetric((1-float64(snap.AggRSS)/float64(snap.NaiveRSS))*100, "%mem-saved")
		}
		out := runExp(b, "surge")
		if sink == "" {
			sink = out.String()
		} else if sink != out.String() {
			b.Fatal("surge output not deterministic across benchmark iterations")
		}
	}
}
