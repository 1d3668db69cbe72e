package experiments

import (
	"bytes"
	"testing"

	"lupine/internal/simclock"
	"lupine/internal/slo"
	"lupine/internal/telemetry"
)

// Every storm must land an SLO report with at least one sampled scope
// and one declared objective in its Env — the surface lupine-bench
// -slo-out exports.
func TestEveryExperimentEmitsSLOReport(t *testing.T) {
	t.Parallel()
	for _, id := range Storms() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			e, err := Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			env := newEnv()
			if _, err := e.Run(env); err != nil {
				t.Fatal(err)
			}
			rep := env.SLO
			if rep == nil {
				t.Fatalf("%s: no SLO report recorded", id)
			}
			if rep.Experiment != id || rep.Seed != env.Seed {
				t.Fatalf("%s: report labelled %q seed %d", id, rep.Experiment, rep.Seed)
			}
			sc := rep.Scope("")
			if sc == nil || sc.Samples == 0 || len(sc.Objectives) == 0 {
				t.Fatalf("%s: report has no sampled scope with objectives: %+v", id, rep.Scopes)
			}
		})
	}
}

// The netsplit wire storm must burn the scoped row's latency budget,
// and the incident chain must name the injected partition — the SLO
// plane closing the loop from alert back to fault.
func TestNetSplitSLOAttributesPartition(t *testing.T) {
	t.Parallel()
	env := newEnv()
	if _, err := netsplitStorm.run(env); err != nil {
		t.Fatal(err)
	}
	rep := env.SLO
	if rep == nil {
		t.Fatal("no netsplit SLO report")
	}
	sc := rep.Scope("netsplit/lupine+mp/rr")
	if sc == nil {
		t.Fatalf("scoped track missing; scopes = %+v", rep.Scopes)
	}
	avail := sc.Objective("availability")
	if avail.Fired() == 0 {
		t.Fatal("availability burn never fired under the wire storm")
	}
	lat := sc.Objective("latency")
	if lat.Fired() == 0 {
		t.Fatal("latency burn never fired under the wire storm")
	}
	if !lat.HasCause("fabric/partition") {
		t.Fatalf("latency incidents never attribute fabric/partition: %+v", lat.Incidents)
	}
}

// The memstorm stall row's availability burn must attribute to the
// injected reclaim stalls that wedged the ladder.
func TestMemStormSLOAttributesReclaimStall(t *testing.T) {
	t.Parallel()
	env := newEnv()
	if _, err := memStorm.run(env); err != nil {
		t.Fatal(err)
	}
	rep := env.SLO
	if rep == nil {
		t.Fatal("no memstorm SLO report")
	}
	avail := rep.Scope("memstorm/lupine+mp/stall").Objective("availability")
	if avail.Fired() == 0 {
		t.Fatal("availability burn never fired under the memory storm")
	}
	if !avail.HasCause("hostmem/reclaim-stall") {
		t.Fatalf("availability incidents never attribute hostmem/reclaim-stall: %+v", avail.Incidents)
	}
	if !avail.HasCause("hostmem/rung:shed") {
		t.Fatalf("availability incidents never attribute the shed rung: %+v", avail.Incidents)
	}
}

// The regionfail blackout: the availability burn's cause chain must
// reach back from the evacuation burst to the blackout itself.
func TestRegionFailSLOAttributesBlackout(t *testing.T) {
	t.Parallel()
	env := newEnv()
	if _, err := regionFailStorm.run(env); err != nil {
		t.Fatal(err)
	}
	rep := env.SLO
	if rep == nil {
		t.Fatal("no regionfail SLO report")
	}
	avail := rep.Scope("regionfail/lupine+mp").Objective("availability")
	if avail.Fired() == 0 {
		t.Fatal("availability burn never fired through the blackout")
	}
	if !avail.HasCause("region/blackout") {
		t.Fatalf("availability incidents never attribute region/blackout: %+v", avail.Incidents)
	}
}

// The breach campaign: the containment objective's first alert must
// precede the first repave landing — the SLO plane sees the breach
// before the containment ladder has finished repaving it.
func TestBreachSLOContainmentAlertPrecedesRepave(t *testing.T) {
	t.Parallel()
	env := newEnv()
	rows, err := breachStorm.run(env)
	if err != nil {
		t.Fatal(err)
	}
	var hero *breachRow
	for i := range rows {
		if rows[i].scope != nil {
			hero = &rows[i]
		}
	}
	if hero == nil || hero.System != "lupine+mp" {
		t.Fatalf("scoped row missing or misplaced: %+v", hero)
	}
	rep := env.SLO
	if rep == nil {
		t.Fatal("no breach SLO report")
	}
	cont := rep.Scope("breach/lupine+mp").Objective("containment")
	first := cont.FirstAlert()
	if first == nil {
		t.Fatal("containment objective never alerted under the campaign")
	}
	if hero.firstRepave < 0 {
		t.Fatal("no repave landed on the scoped row")
	}
	repaveUS := float64(hero.firstRepave) / 1000
	if first.AtUS >= repaveUS {
		t.Fatalf("containment alert at %vµs does not precede first repave at %vµs", first.AtUS, repaveUS)
	}
	if !cont.HasCause("attack/payload") {
		t.Fatalf("containment incidents never attribute attack/payload: %+v", cont.Incidents)
	}
}

// Same seed, same storm ⇒ byte-identical SLO report. stormPins holds
// every storm's seed-42 report to a fixed digest, so any process must
// reproduce it; this is the in-process version at one storm.
func TestSLOReportDeterministic(t *testing.T) {
	t.Parallel()
	report := func() []byte {
		env := newEnv()
		if _, err := memStorm.run(env); err != nil {
			t.Fatal(err)
		}
		return env.SLO.JSON()
	}
	if !bytes.Equal(report(), report()) {
		t.Fatal("two same-seed memstorm runs render different SLO reports")
	}
}

// TestScopeSampleAllocations pins the steady-state cost of one SLI
// sample under a fleet hero row's objective pair at zero allocations:
// the cumulative series grow amortized, and a healthy row fires no
// alert. Allocation counts are deterministic, so a per-sample
// allocation fails here.
func TestScopeSampleAllocations(t *testing.T) {
	const track = "pool"
	reg := telemetry.NewRegistry()
	sc := slo.NewScope(track, reg, nil, sloEvery)
	for _, o := range sloFleet(track) {
		sc.Add(o)
	}
	served, lat := reg.Counter(track+".served"), reg.Histogram(track+".latency")
	now := simclock.Time(0)
	sample := func() {
		served.Add(10)
		lat.Observe(300 * simclock.Microsecond)
		now = now.Add(sloEvery)
		sc.Sample(now)
	}
	for i := 0; i < 16; i++ {
		sample()
	}
	if allocs := testing.AllocsPerRun(1000, sample); allocs != 0 {
		t.Fatalf("%v allocations per steady-state Sample, want 0", allocs)
	}
	sc.Finish(now)
	if alerts := sc.Alerts(); len(alerts) != 0 {
		t.Fatalf("a healthy row fired alerts: %+v", alerts)
	}
}
