package experiments

import (
	"testing"
)

// TestMemStormDeterministic renders the whole memory-pressure comparison
// twice and requires bit-identical output — same seed, same storm, same
// ladder climbs, same kills.
func TestMemStormDeterministic(t *testing.T) {
	t.Parallel()
	e, err := Lookup("memstorm")
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
		t.Errorf("memstorm output differs between identical seeded runs:\n--- first\n%s\n--- second\n%s",
			first.String(), second.String())
	}
}

// TestMemStormAcceptance pins the experiment's acceptance shape: under a
// 2x overcommit storm the lupine+mp pool climbs every rung of the graded
// ladder (balloon, evict, shed, restore-backed kill) while serving >= 90%
// of requests with zero host OOM aborts; the stall variant pays for its
// wedged reclaim; and every libos comparator goes straight to OOM
// crash-looping with visibly worse availability.
func TestMemStormAcceptance(t *testing.T) {
	t.Parallel()
	results, err := memStorm.run(newEnv())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]memResult{}
	for _, r := range results {
		byName[r.System] = r
		if got := r.Res.OK + r.Res.Shed + r.Res.Failed; got != r.Res.Total {
			t.Errorf("%s: request conservation broken: %d resolved of %d offered", r.System, got, r.Res.Total)
		}
	}

	hero, ok := byName["lupine+mp"]
	if !ok {
		t.Fatal("no lupine+mp row")
	}
	m := hero.Res.Mem
	// Overcommit is real: committed demand ~2x capacity, and the storm
	// actually pushed the pool into pressure.
	if m.Committed < m.Capacity*3/2 {
		t.Errorf("committed %d not overcommitted against capacity %d", m.Committed, m.Capacity)
	}
	if m.PressureSome == 0 || m.PressureFull == 0 {
		t.Errorf("pressure never built: some=%v full=%v", m.PressureSome, m.PressureFull)
	}
	// Every rung of the ladder engaged, in a run that stayed available.
	if m.BalloonReclaimed == 0 {
		t.Error("balloon rung never reclaimed")
	}
	if m.Evicted == 0 {
		t.Error("eviction rung never freed a cold artifact")
	}
	if hero.Res.MemSheds == 0 {
		t.Error("shed rung never engaged")
	}
	if m.Kills < 1 || m.KilledBytes == 0 {
		t.Errorf("kill rung: kills=%d bytes=%d, want at least one accounted kill", m.Kills, m.KilledBytes)
	}
	if hero.Res.Restores < m.Kills {
		t.Errorf("restores %d < kills %d: OOM replacements must come back via restore", hero.Res.Restores, m.Kills)
	}
	if m.Aborts != 0 {
		t.Errorf("hero pool aborted %d VMs: the ladder exists so this is zero", m.Aborts)
	}
	if avail := hero.Res.Availability(); avail < 0.90 {
		t.Errorf("hero availability %.3f below the 0.90 floor", avail)
	}

	// The stall variant replays the same storm with reclaim wedged: the
	// stalls are visible in the accounting and it does no better than the
	// clean run.
	stall, ok := byName["lupine+mp/stall"]
	if !ok {
		t.Fatal("no lupine+mp/stall row")
	}
	if stall.Res.Mem.ReclaimStalls == 0 {
		t.Error("stall variant recorded no reclaim stalls")
	}
	if stall.Res.Availability() > hero.Res.Availability() {
		t.Errorf("stalled reclaim improved availability: %.3f > %.3f",
			stall.Res.Availability(), hero.Res.Availability())
	}
	if stall.Res.Mem.PressureSome < m.PressureSome {
		t.Errorf("stalled reclaim spent less time under pressure: %v < %v",
			stall.Res.Mem.PressureSome, m.PressureSome)
	}

	// Every libos comparator: no ladder, straight to the OOM killer,
	// cold-boot crash loops, worse availability than the hero.
	libosSeen := 0
	for name, r := range byName {
		if r.Ladder {
			continue
		}
		libosSeen++
		lm := r.Res.Mem
		if lm.Aborts == 0 {
			t.Errorf("%s: no OOM aborts — comparator was supposed to crash", name)
		}
		if lm.BalloonReclaimed != 0 || lm.Evicted != 0 || lm.Kills != 0 {
			t.Errorf("%s: comparator used ladder rungs it does not have: %+v", name, lm)
		}
		if r.Res.Restores != 0 {
			t.Errorf("%s: comparator restored from a snapshot", name)
		}
		if r.Res.Availability() >= hero.Res.Availability() {
			t.Errorf("%s availability %.3f not below lupine+mp %.3f",
				name, r.Res.Availability(), hero.Res.Availability())
		}
	}
	if libosSeen == 0 {
		t.Error("no libos comparator rows")
	}
}

// BenchmarkMemStorm runs the full overcommit storm as the repeatable
// benchmark; reported metrics contrast the policies: time under pressure,
// bytes reclaimed without killing anything, and kills/aborts per policy.
func BenchmarkMemStorm(b *testing.B) {
	var sink string
	for i := 0; i < b.N; i++ {
		results, err := memStorm.run(newEnv())
		if err != nil {
			b.Fatal(err)
		}
		byName := map[string]memResult{}
		libosAborts := 0
		for _, r := range results {
			byName[r.System] = r
			if !r.Ladder {
				libosAborts += r.Res.Mem.Aborts
			}
		}
		m := byName["lupine+mp"].Res.Mem
		b.ReportMetric((m.PressureSome + m.PressureFull).Milliseconds(), "sim-pressure-ms")
		b.ReportMetric(float64(m.BalloonReclaimed+m.Evicted)/(1<<20), "sim-reclaimed-MiB")
		b.ReportMetric(float64(m.Kills), "sim-ladder-kills")
		b.ReportMetric(float64(libosAborts), "sim-libos-aborts")

		out := runExp(b, "memstorm")
		if sink == "" {
			sink = out.String()
		} else if sink != out.String() {
			b.Fatal("memstorm output not deterministic across benchmark iterations")
		}
	}
}
