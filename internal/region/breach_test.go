package region

import (
	"reflect"
	"testing"

	"lupine/internal/attack"
	"lupine/internal/faults"
	"lupine/internal/simclock"
)

const us = simclock.Microsecond

// breachCampaign is the shared campaign shape: futex probes, payloads
// always armed. Rules pin the compromise schedule per test.
func breachCampaign() attack.Config {
	cfg := attack.DefaultConfig()
	cfg.Vectors = []string{"futex"}
	return cfg
}

// probePlan fires a probe on every campaign tick inside [from, to), with
// payloads always armed.
func probePlan(from, to simclock.Time) faults.Plan {
	return faults.Plan{
		Seed: 7,
		Rules: []faults.Rule{
			{Site: attack.SiteSyscallProbe, From: from, To: to, Prob: 1, Param: 1},
			{Site: attack.SitePayload, Prob: 1},
		},
	}
}

// TestBreachLadderContains: the full ladder on a healthy plane — every
// seeded compromise is detected, quarantined and repaved from lineage,
// with availability intact and the run bit-for-bit replayable.
func TestBreachLadderContains(t *testing.T) {
	run := func() Result {
		cfg := testConfig()
		cfg.Breach = &BreachConfig{Campaign: breachCampaign()}
		p := New(cfg, mustInj(t, probePlan(3*simclock.Time(ms), 6*simclock.Time(ms))))
		res := p.Run()
		checkCells(t, p, res)
		checkPlacements(t, p, res)
		return res
	}
	res := run()

	if res.Attack.Compromised == 0 || res.Attack.Landed == 0 {
		t.Fatalf("campaign never landed: %+v", res.Attack)
	}
	if res.Attack.Detected != res.Attack.Compromised {
		t.Fatalf("canaries missed compromises: %+v", res.Attack)
	}
	if res.Breach.Quarantined != res.Attack.Compromised || res.Breach.Repaved != res.Attack.Compromised {
		t.Fatalf("ladder incomplete: attack %+v breach %+v", res.Attack, res.Breach)
	}
	if got := res.Containment(); got != 1.0 {
		t.Fatalf("containment %.2f, want 1.0: %+v", got, res.Breach)
	}
	if res.Breach.RepaveRestores == 0 {
		t.Fatalf("repaves must restore from lineage, not cold-boot: %+v", res.Breach)
	}
	if res.Breach.StillServing != 0 {
		t.Fatalf("%d compromised backends still serving at end", res.Breach.StillServing)
	}
	if av := res.Availability(); av < 0.9 {
		t.Fatalf("availability %.3f under containment, want >= 0.9", av)
	}
	for _, c := range res.Cells {
		if c.FalseTrips != 0 {
			t.Fatalf("quarantine opens leaked into FalseTrips: %+v", c)
		}
	}
	if res.DwellPercentile(50) <= 0 {
		t.Fatal("dwell must be positive: detection takes canary sweeps")
	}

	res2 := run()
	if !reflect.DeepEqual(res.Attack, res2.Attack) || !reflect.DeepEqual(res.Breach, res2.Breach) ||
		res.OK != res2.OK || res.Events != res2.Events {
		t.Fatal("same seed diverged across breach runs")
	}
}

// TestQuarantineDefersAtFloor: quarantining the last active backend of a
// cell must defer — the replacement boots first and the victim is cut
// the instant it lands, so the cell never empties.
func TestQuarantineDefersAtFloor(t *testing.T) {
	cfg := testConfig()
	cfg.Regions = cfg.Regions[:1]
	cfg.PoolPerRegion = 1
	cfg.Requests = 200
	cfg.Breach = &BreachConfig{Campaign: breachCampaign()}
	plan := faults.Plan{
		Seed: 7,
		Rules: []faults.Rule{
			{Site: attack.SiteSyscallProbe, From: 3 * simclock.Time(ms), NthHit: 1, Param: 1},
			{Site: attack.SitePayload, Prob: 1},
		},
	}
	p := New(cfg, mustInj(t, plan))
	res := p.Run()
	checkCells(t, p, res)
	checkPlacements(t, p, res)

	if res.Attack.Compromised != 1 {
		t.Fatalf("want exactly one compromise: %+v", res.Attack)
	}
	if res.Breach.QuarantineDeferred != 1 {
		t.Fatalf("quarantine on the last backend must defer: %+v", res.Breach)
	}
	if res.Breach.Quarantined != 1 || res.Breach.Repaved != 1 {
		t.Fatalf("deferred quarantine must land after the repave: %+v", res.Breach)
	}
	if res.Containment() != 1.0 {
		t.Fatalf("containment %.2f, want 1.0", res.Containment())
	}
	if res.Cells[0].MinActive < 1 {
		t.Fatalf("cell floor violated: MinActive=%d", res.Cells[0].MinActive)
	}
}

// TestRepaveRolloutRace: a containment repave finishing before a rolling
// upgrade reaches the victim must not stall the rollout — the moved
// backend is skipped and the replacement (same identity) upgrades in its
// place.
func TestRepaveRolloutRace(t *testing.T) {
	cfg := testConfig()
	cfg.Regions = cfg.Regions[:1]
	cfg.Requests = 300
	cfg.Breach = &BreachConfig{Campaign: breachCampaign()}
	cfg.Upgrades = []UpgradeSpec{{
		Identity: "default", Start: 6 * simclock.Time(ms), DrainTimeout: 2 * ms,
	}}
	plan := faults.Plan{
		Seed: 7,
		Rules: []faults.Rule{
			{Site: attack.SiteSyscallProbe, From: 3 * simclock.Time(ms), NthHit: 1, Param: 1},
			{Site: attack.SitePayload, Prob: 1},
		},
	}
	p := New(cfg, mustInj(t, plan))
	res := p.Run()
	checkCells(t, p, res)
	checkPlacements(t, p, res)

	if res.Attack.Compromised != 1 || res.Breach.Repaved != 1 {
		t.Fatalf("repave must land before the rollout: attack %+v breach %+v",
			res.Attack, res.Breach)
	}
	if res.UpgradeDone < 0 {
		t.Fatal("rollout stalled behind the repaved backend")
	}
	if res.Upgraded != 3 {
		t.Fatalf("upgraded %d backends, want 3 (two originals + the repave replacement)",
			res.Upgraded)
	}
}

// TestKMLBlastRadiusEvacuatesRegion: a compromised ring-0 guest owns its
// host inside the escalation window; the compromise density crossing the
// threshold evacuates the whole region — deliberately, without charging
// the router's failover ledger.
func TestKMLBlastRadiusEvacuatesRegion(t *testing.T) {
	cfg := testConfig()
	// Four VMs over two hosts puts two on each, so the escalation always
	// has a co-located peer to own, and the takeover's 2-of-4 density
	// meets the threshold wherever the seeded probe lands.
	cfg.PoolPerRegion = 4
	cfg.Breach = &BreachConfig{
		Campaign:        breachCampaign(),
		Surface:         func(int) attack.Surface { return attack.Surface{KML: true} },
		EvacuateDensity: 0.5,
	}
	plan := faults.Plan{
		Seed: 7,
		Rules: []faults.Rule{
			{Site: attack.SiteSyscallProbe, From: 3 * simclock.Time(ms), NthHit: 1, Param: 1},
			{Site: attack.SitePayload, Prob: 1},
		},
	}
	p := New(cfg, mustInj(t, plan))
	res := p.Run()
	checkCells(t, p, res)
	checkPlacements(t, p, res)

	// One seeded compromise, then the host takeover: the escalation owns
	// the victim's co-located peers (the default packing puts 2 of 3 VMs
	// on the first host), tripping the 0.6 density threshold.
	if res.Attack.Escalations == 0 || res.Attack.ByEscalation == 0 {
		t.Fatalf("KML escalation never fired: %+v", res.Attack)
	}
	if res.Breach.RegionEvacs != 1 {
		t.Fatalf("density threshold must evacuate the region: %+v", res.Breach)
	}
	if res.Failovers != 0 || res.FalseTrips != 0 {
		t.Fatalf("deliberate evacuation charged the router's ledger: failovers=%d falseTrips=%d",
			res.Failovers, res.FalseTrips)
	}
	if res.Breach.StillServing != 0 {
		t.Fatalf("compromised backends left serving: %+v", res.Breach)
	}
	if res.Attack.Compromised <= 1 {
		t.Fatalf("blast radius must exceed the seeded compromise: %+v", res.Attack)
	}
}

// TestRepaveDeniedWithoutLineage: an identity with no snapshot lineage
// has nothing attested to restore from — quarantine still cages the
// compromise, but the backend is never replaced.
func TestRepaveDeniedWithoutLineage(t *testing.T) {
	cfg := testConfig()
	cfg.Snapshot = nil // no lineage anywhere: the comparator story
	cfg.Breach = &BreachConfig{Campaign: breachCampaign()}
	plan := faults.Plan{
		Seed: 7,
		Rules: []faults.Rule{
			{Site: attack.SiteSyscallProbe, From: 3 * simclock.Time(ms), NthHit: 1, Param: 1},
			{Site: attack.SitePayload, Prob: 1},
		},
	}
	p := New(cfg, mustInj(t, plan))
	res := p.Run()
	checkCells(t, p, res)
	checkPlacements(t, p, res)

	if res.Attack.Compromised != 1 {
		t.Fatalf("want exactly one compromise: %+v", res.Attack)
	}
	if res.Breach.RepaveDenied != 1 || res.Breach.Repaved != 0 {
		t.Fatalf("lineage-less repave must be denied: %+v", res.Breach)
	}
	if res.Breach.IsolatedOnly != 1 || res.Containment() != 0 {
		t.Fatalf("victim must stay caged but unreplaced: %+v containment=%.2f",
			res.Breach, res.Containment())
	}
}

// A host crash after a repave kills the repaved victim but never
// replaces it a second time.
func TestHostCrashAfterRepaveKillsWithoutReplacing(t *testing.T) {
	cfg := testConfig()
	cfg.Regions = cfg.Regions[:1]
	cfg.PoolPerRegion = 1
	cfg.Breach = &BreachConfig{Campaign: breachCampaign()}
	p := New(cfg, mustInj(t, faults.Plan{
		Seed: 7,
		Rules: []faults.Rule{
			{Site: attack.SiteSyscallProbe, From: 3 * simclock.Time(ms), NthHit: 1, Param: 1},
			{Site: attack.SitePayload, Prob: 1},
			{Site: SiteHostCrash, From: 12 * simclock.Time(ms), NthHit: 1, Param: 1001},
		},
	}))
	res := p.Run()
	checkCells(t, p, res)
	checkPlacements(t, p, res)

	if res.Breach.Repaved != 1 || res.HostCrashes != 1 {
		t.Fatalf("repaved %d, host crashes %d; want 1 and 1", res.Breach.Repaved, res.HostCrashes)
	}
	if res.CrashKilled != 0 || res.CrashRecovered != 0 {
		t.Errorf("killed %d, recovered %d; the repaved victim must not be replaced again",
			res.CrashKilled, res.CrashRecovered)
	}
	if v := placementNamed(p, "r0/vm0"); v == nil || !v.moved || v.diedAt < 0 {
		t.Error("the victim should be moved and stamped dead")
	}
}

// Containment evacuation with no survivor to take its clean suspects
// counts each one unrecovered: they were taken out of service and never
// replaced anywhere.
func TestContainmentEvacuationCountsLostSuspects(t *testing.T) {
	cfg := testConfig()
	cfg.Regions = cfg.Regions[:1]
	cfg.PoolPerRegion = 4
	cfg.Breach = &BreachConfig{
		Campaign:        breachCampaign(),
		Surface:         func(int) attack.Surface { return attack.Surface{KML: true} },
		EvacuateDensity: 0.5,
	}
	p := New(cfg, mustInj(t, faults.Plan{
		Seed: 7,
		Rules: []faults.Rule{
			{Site: attack.SiteSyscallProbe, From: 3 * simclock.Time(ms), NthHit: 1, Param: 1},
			{Site: attack.SitePayload, Prob: 1},
		},
	}))
	res := p.Run()
	checkCells(t, p, res)
	checkPlacements(t, p, res)

	if res.Breach.RegionEvacs != 1 {
		t.Fatalf("density threshold must evacuate the region: %+v", res.Breach)
	}
	if res.Unrecovered != 2 {
		t.Errorf("Unrecovered = %d, want 2 (the clean suspects nowhere could take)", res.Unrecovered)
	}
}
