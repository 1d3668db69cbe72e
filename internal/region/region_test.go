package region

import (
	"reflect"
	"testing"

	"lupine/internal/fabric"
	"lupine/internal/faults"
	"lupine/internal/simclock"
	"lupine/internal/snapshot"
)

const (
	ms  = simclock.Millisecond
	mib = int64(1) << 20
)

// testSnapshot is a warm capture fixture: 32 MiB of base RSS makes the
// replication transfer (4 GB/s default) land at 8 ms — before any
// evacuation this suite triggers.
func testSnapshot() *snapshot.Snapshot {
	return &snapshot.Snapshot{
		ID:        "feedface00000000",
		Kernel:    "k-test",
		Monitor:   "firecracker",
		BootTotal: 5 * ms,
		BaseRSS:   32 * mib,
	}
}

// testConfig shrinks the default plane to a fast test workload.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Requests = 400
	cfg.Snapshot = testSnapshot()
	cfg.ColdBoot = 5 * ms
	return cfg
}

// checkCells asserts every request each region cell was offered
// resolved exactly once, as served, shed or failed, and every
// connection the run dialed ended closed.
func checkCells(t *testing.T, p *Plane, res Result) {
	t.Helper()
	if st := p.Net().Stats(); st.Dialed != st.Closed {
		t.Errorf("connections left open: dialed %d, closed %d", st.Dialed, st.Closed)
	}
	for i, c := range res.Cells {
		if got := c.OK + c.Shed + c.Failed; got != c.Total {
			t.Errorf("cell %d conservation broken: OK %d + Shed %d + Failed %d = %d, want %d",
				i, c.OK, c.Shed, c.Failed, got, c.Total)
		}
	}
}

// checkPlacements asserts the placement lifecycle at the end of a run:
// every placement still serving as itself sits on a live host in a lit
// region, the fault plane stamped every other placement it took down,
// each moved placement was counted by exactly one recovery, and no
// provisioning is left in flight.
func checkPlacements(t *testing.T, p *Plane, res Result) {
	t.Helper()
	moved := 0
	for _, r := range p.Regions() {
		for _, pl := range r.placements {
			if pl.moved {
				moved++
			}
			down := pl.host.dead || r.dark
			if pl.live() && down {
				t.Errorf("%s serves on %s (dead %v) in %s (dark %v)", pl.b.Name, pl.host.name, pl.host.dead, r.name, r.dark)
			}
			if down && !pl.retired && pl.diedAt < 0 {
				t.Errorf("%s on %s in %s went down unstamped", pl.b.Name, pl.host.name, r.name)
			}
		}
	}
	if got := res.CrashRecovered + res.Evacuated + res.Breach.Repaved; got != moved {
		t.Errorf("CrashRecovered %d + Evacuated %d + Repaved %d = %d recoveries for %d moved placements",
			res.CrashRecovered, res.Evacuated, res.Breach.Repaved, got, moved)
	}
	if p.provisioning != 0 {
		t.Errorf("%d provisions still in flight at end of run", p.provisioning)
	}
}

// placementNamed finds a placement by backend name, or nil.
func placementNamed(p *Plane, name string) *placement {
	for _, r := range p.Regions() {
		for _, pl := range r.placements {
			if pl.b.Name == name {
				return pl
			}
		}
	}
	return nil
}

func mustInj(t *testing.T, pl faults.Plan) *faults.Injector {
	t.Helper()
	inj, err := faults.New(pl)
	if err != nil {
		t.Fatalf("bad plan: %v", err)
	}
	return inj
}

// blackoutPlan darkens region 2 (1-based param) at 8 ms.
func blackoutPlan() faults.Plan {
	return faults.Plan{
		Seed: 7,
		Rules: []faults.Rule{
			{Site: SiteBlackout, From: 8 * simclock.Time(ms), To: 9 * simclock.Time(ms), Prob: 1, Param: 2},
		},
	}
}

func TestCleanRunServesEverything(t *testing.T) {
	cfg := testConfig()
	p := New(cfg, nil)
	res := p.Run()
	checkCells(t, p, res)
	checkPlacements(t, p, res)
	if res.Total != cfg.Requests {
		t.Fatalf("Total = %d, want %d", res.Total, cfg.Requests)
	}
	if res.OK != res.Total {
		t.Errorf("clean run served %d/%d (shed %d, failed %d)", res.OK, res.Total, res.Shed, res.Failed)
	}
	if res.Failovers != 0 || res.Evacuated != 0 {
		t.Errorf("clean run declared %d failovers, evacuated %d", res.Failovers, res.Evacuated)
	}
	if want := 3 * cfg.PoolPerRegion; res.Placed != want {
		t.Errorf("Placed = %d, want %d", res.Placed, want)
	}
	if res.Unrecovered != 0 {
		t.Errorf("Unrecovered = %d, want 0", res.Unrecovered)
	}
}

func TestBlackoutFailoverAndWarmEvacuation(t *testing.T) {
	cfg := testConfig()
	p := New(cfg, mustInj(t, blackoutPlan()))
	res := p.Run()
	checkCells(t, p, res)
	checkPlacements(t, p, res)

	if !p.Regions()[1].Dark() {
		t.Fatal("region r1 should be dark")
	}
	if res.Failovers < 1 {
		t.Fatalf("no failover declared; result %+v", res)
	}
	if len(res.Detect) != 1 {
		t.Fatalf("Detect = %v, want exactly one true-failover detection", res.Detect)
	}
	if d := res.Detect[0]; d <= 0 || d > 10*ms {
		t.Errorf("detection latency %v out of range", d)
	}
	if res.FalseTrips != 0 {
		t.Errorf("FalseTrips = %d, want 0 (the region really died)", res.FalseTrips)
	}
	if res.Evacuated != cfg.PoolPerRegion {
		t.Errorf("Evacuated = %d, want %d", res.Evacuated, cfg.PoolPerRegion)
	}
	if res.EvacRestores != cfg.PoolPerRegion || res.EvacCold != 0 || res.EvacFallbacks != 0 {
		t.Errorf("evacuation should be all warm restores: restores=%d cold=%d fallbacks=%d",
			res.EvacRestores, res.EvacCold, res.EvacFallbacks)
	}
	if res.Unrecovered != 0 {
		t.Errorf("Unrecovered = %d, want 0", res.Unrecovered)
	}
	if a := res.Availability(); a < 0.90 {
		t.Errorf("availability %.3f < 0.90 through a full-region blackout", a)
	}
	// The survivors host the evacuees: the two live cells gained pool
	// members, and the replicas they restored from were shipped bytes.
	took := 0
	for _, rs := range res.PerRegion {
		took += rs.TookIn
	}
	if took != cfg.PoolPerRegion {
		t.Errorf("TookIn sum = %d, want %d", took, cfg.PoolPerRegion)
	}
	if res.Repl.Copies != 2 || res.Repl.Bytes != 2*testSnapshot().BaseRSS {
		t.Errorf("replication ledger %+v, want 2 copies of the base RSS", res.Repl)
	}
}

func TestColdEvacuationWithoutReplicas(t *testing.T) {
	cfg := testConfig()
	cfg.Snapshot = nil // no capture anywhere: the no-warm-pool comparator
	cfg.Replicate = false
	p := New(cfg, mustInj(t, blackoutPlan()))
	res := p.Run()
	checkCells(t, p, res)
	checkPlacements(t, p, res)

	if res.Evacuated != cfg.PoolPerRegion {
		t.Fatalf("Evacuated = %d, want %d", res.Evacuated, cfg.PoolPerRegion)
	}
	if res.EvacRestores != 0 || res.EvacCold != cfg.PoolPerRegion {
		t.Errorf("unreplicated evacuation should cold-boot: restores=%d cold=%d",
			res.EvacRestores, res.EvacCold)
	}
	if res.Unrecovered != 0 {
		t.Errorf("Unrecovered = %d, want 0", res.Unrecovered)
	}
	// Cold boots are milliseconds; warm restores are microseconds. The
	// evacuation wave must reflect the gap.
	pw := New(testConfig(), mustInj(t, blackoutPlan()))
	warm := pw.Run()
	checkCells(t, pw, warm)
	checkPlacements(t, pw, warm)
	if res.EvacDuration() <= warm.EvacDuration() {
		t.Errorf("cold evacuation (%v) should be slower than warm (%v)",
			res.EvacDuration(), warm.EvacDuration())
	}
}

// restoreFaultPlan arms a restore-fail against the first evacuation
// restore, on top of the blackout.
func restoreFaultPlan() faults.Plan {
	pl := blackoutPlan()
	pl.Rules = append(pl.Rules, faults.Rule{Site: snapshot.SiteRestoreFail, NthHit: 1})
	return pl
}

func TestEvacuationRestoreFaultFallsBackCold(t *testing.T) {
	cfg := testConfig()
	p := New(cfg, mustInj(t, restoreFaultPlan()))
	res := p.Run()
	checkCells(t, p, res)
	checkPlacements(t, p, res)
	if res.Evacuated != cfg.PoolPerRegion {
		t.Fatalf("Evacuated = %d, want %d", res.Evacuated, cfg.PoolPerRegion)
	}
	if res.EvacFallbacks != 1 || res.EvacRestores != cfg.PoolPerRegion-1 {
		t.Errorf("restore fault should force exactly one fallback: restores=%d fallbacks=%d",
			res.EvacRestores, res.EvacFallbacks)
	}
	if res.Unrecovered != 0 {
		t.Errorf("Unrecovered = %d, want 0", res.Unrecovered)
	}
}

// partitionPlan cuts all trunk traffic INTO region 1 (0-based) for 4 ms
// — shorter than the evacuation dwell, so the region must rejoin.
func partitionPlan() faults.Plan {
	return faults.Plan{
		Seed: 7,
		Rules: []faults.Rule{
			{Site: fabric.SiteTrunkCut, From: 8 * simclock.Time(ms), To: 12 * simclock.Time(ms), Prob: 1, Param: CutInto(1)},
		},
	}
}

func TestPartitionFalseTripHealsAndRejoins(t *testing.T) {
	cfg := testConfig()
	p := New(cfg, mustInj(t, partitionPlan()))
	res := p.Run()
	checkCells(t, p, res)
	checkPlacements(t, p, res)

	if p.Regions()[1].Dark() {
		t.Fatal("a partition must not darken the region: it is alive")
	}
	if res.FalseTrips < 1 {
		t.Fatalf("partition should cause a false failover; result %+v", res)
	}
	if res.Rejoins < 1 {
		t.Errorf("healed region should rejoin (Rejoins = %d)", res.Rejoins)
	}
	if res.Evacuated != 0 {
		t.Errorf("a transient partition must not evacuate (Evacuated = %d)", res.Evacuated)
	}
	if len(res.Detect) != 0 {
		t.Errorf("false trips must not count as true detections: %v", res.Detect)
	}
	if a := res.Availability(); a < 0.90 {
		t.Errorf("availability %.3f < 0.90 through the partition", a)
	}
	if res.PerRegion[1].Dead {
		t.Errorf("region r1 should be back in rotation at end of run")
	}
}

// crashPlan kills region 1's host 1 (both 1-based: the home region's
// first host) at 8 ms.
func crashPlan() faults.Plan {
	return faults.Plan{
		Seed: 7,
		Rules: []faults.Rule{
			{Site: SiteHostCrash, From: 8 * simclock.Time(ms), NthHit: 1, Param: 1001},
		},
	}
}

func TestHostCrashRestoresLocally(t *testing.T) {
	cfg := testConfig()
	p := New(cfg, mustInj(t, crashPlan()))
	res := p.Run()
	checkCells(t, p, res)
	checkPlacements(t, p, res)

	if res.HostCrashes != 1 {
		t.Fatalf("HostCrashes = %d, want 1", res.HostCrashes)
	}
	if res.CrashKilled == 0 {
		t.Fatal("the crashed host carried no VMs; placement is broken")
	}
	if res.CrashRecovered != res.CrashKilled {
		t.Errorf("CrashRecovered = %d, want %d (every killed VM replaced in-region)",
			res.CrashRecovered, res.CrashKilled)
	}
	if res.Evacuated != 0 || res.Failovers != 0 {
		t.Errorf("a host crash must stay inside its region: evacuated=%d failovers=%d",
			res.Evacuated, res.Failovers)
	}
	if res.Unrecovered != 0 {
		t.Errorf("Unrecovered = %d, want 0", res.Unrecovered)
	}
	if a := res.Availability(); a < 0.90 {
		t.Errorf("availability %.3f < 0.90 through a host crash", a)
	}
}

// stormPlan is the full regional storm: blackout + partition + host
// crash + one restore fault, all in one run.
func stormPlan() faults.Plan {
	return faults.Plan{
		Seed: 7,
		Rules: []faults.Rule{
			{Site: SiteBlackout, From: 8 * simclock.Time(ms), To: 9 * simclock.Time(ms), Prob: 1, Param: 2},
			{Site: fabric.SiteTrunkCut, From: 10 * simclock.Time(ms), To: 13 * simclock.Time(ms), Prob: 1, Param: CutInto(2)},
			{Site: SiteHostCrash, From: 6 * simclock.Time(ms), NthHit: 1, Param: 1001},
			{Site: snapshot.SiteRestoreFail, NthHit: 2},
		},
	}
}

func TestDeterministicReplay(t *testing.T) {
	pa := New(testConfig(), mustInj(t, stormPlan()))
	a := pa.Run()
	checkCells(t, pa, a)
	checkPlacements(t, pa, a)
	pb := New(testConfig(), mustInj(t, stormPlan()))
	b := pb.Run()
	checkCells(t, pb, b)
	checkPlacements(t, pb, b)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different runs:\n a=%+v\n b=%+v", a, b)
	}
	if a.Events == 0 || a.OK == 0 {
		t.Fatalf("storm run did no work: %+v", a)
	}
}

func TestPlacementDeniedWhenHostsFull(t *testing.T) {
	cfg := testConfig()
	cfg.Requests = 50
	for i := range cfg.Regions {
		cfg.Regions[i].Host.Capacity = 200 * mib // fits 2 x 128 MiB at 1.5x, not 3
		cfg.Regions[i].Hosts = 1
	}
	p := New(cfg, nil)
	res := p.Run()
	checkCells(t, p, res)
	checkPlacements(t, p, res)
	if res.PlacementDenied == 0 {
		t.Fatal("overcommitted hosts should deny placements")
	}
	if res.Placed+res.PlacementDenied != 3*cfg.PoolPerRegion {
		t.Errorf("Placed(%d) + Denied(%d) != requested %d",
			res.Placed, res.PlacementDenied, 3*cfg.PoolPerRegion)
	}
}

// An evacuee whose destination goes dark while it cold-boots backs out
// and picks again: r1 blacks out at 8 ms, r2 at 19 ms, and the r1
// evacuee bound for r2 lands in r0 instead of serving from a dead
// region.
func TestEvacueeRepicksWhenDestinationGoesDark(t *testing.T) {
	cfg := testConfig()
	cfg.Snapshot = nil
	cfg.Replicate = false
	cfg.ColdBoot = 20 * ms
	p := New(cfg, mustInj(t, faults.Plan{
		Seed: 7,
		Rules: []faults.Rule{
			{Site: SiteBlackout, From: 8 * simclock.Time(ms), To: 9 * simclock.Time(ms), Prob: 1, Param: 2},
			{Site: SiteBlackout, From: 19 * simclock.Time(ms), To: 20 * simclock.Time(ms), Prob: 1, Param: 3},
		},
	}))
	res := p.Run()
	checkCells(t, p, res)
	checkPlacements(t, p, res)

	for i, want := range []int{6, 0, 0} {
		if got := res.PerRegion[i].TookIn; got != want {
			t.Errorf("%s TookIn = %d, want %d", res.PerRegion[i].Name, got, want)
		}
	}
	if res.Unrecovered != 0 {
		t.Errorf("Unrecovered = %d, want 0", res.Unrecovered)
	}
	if placementNamed(p, "r1/vm1@r2") != nil {
		t.Error("r1/vm1 landed in dark r2")
	}
	if pl := placementNamed(p, "r1/vm1@r0"); pl == nil || !pl.live() {
		t.Error("r1/vm1 should have picked again and serve from r0")
	}
}

// A crash replacement whose host crashes while it boots backs out and
// picks again: h0 dies at 8 ms, its VM's replacement heads for h1, h1
// dies at 9 ms, and both replacements land on h2.
func TestCrashReplacementRepicksWhenHostDies(t *testing.T) {
	cfg := testConfig()
	cfg.Snapshot = nil
	cfg.Regions[0].Hosts = 3
	p := New(cfg, mustInj(t, faults.Plan{
		Seed: 7,
		Rules: []faults.Rule{
			{Site: SiteHostCrash, From: 8 * simclock.Time(ms), To: 9 * simclock.Time(ms), NthHit: 1, Param: 1001},
			{Site: SiteHostCrash, From: 9 * simclock.Time(ms), NthHit: 1, Param: 1002},
		},
	}))
	res := p.Run()
	checkCells(t, p, res)
	checkPlacements(t, p, res)

	if res.HostCrashes != 2 || res.CrashKilled != 2 || res.CrashRecovered != 2 {
		t.Errorf("crashes %d, killed %d, recovered %d; want 2, 2, 2",
			res.HostCrashes, res.CrashKilled, res.CrashRecovered)
	}
	for _, name := range []string{"r0/vm0'", "r0/vm1'"} {
		if pl := placementNamed(p, name); pl == nil || !pl.live() || pl.host.name != "r0/h2" {
			t.Errorf("%s should serve from r0/h2", name)
		}
	}
}

// partitionPastDwell cuts all trunk traffic into region 1 (0-based) from
// 4 ms to 30 ms — far past the evacuation dwell, so the region is
// evacuated while its cell, and the moved placements in it, stay alive.
func partitionPastDwell() faults.Plan {
	return faults.Plan{
		Seed: 7,
		Rules: []faults.Rule{
			{Site: fabric.SiteTrunkCut, From: 4 * simclock.Time(ms), To: 30 * simclock.Time(ms), Prob: 1, Param: CutInto(1)},
		},
	}
}

// A host crash inside an evacuated region kills the moved placements
// there but never replaces them a second time.
func TestHostCrashAfterEvacuationKillsWithoutReplacing(t *testing.T) {
	plan := partitionPastDwell()
	plan.Rules = append(plan.Rules, faults.Rule{Site: SiteHostCrash, From: 18 * simclock.Time(ms), NthHit: 1, Param: 2001})
	p := New(testConfig(), mustInj(t, plan))
	res := p.Run()
	checkCells(t, p, res)
	checkPlacements(t, p, res)

	if res.Evacuated != 3 || res.HostCrashes != 1 {
		t.Fatalf("evacuated %d, host crashes %d; want 3 and 1", res.Evacuated, res.HostCrashes)
	}
	if res.CrashKilled != 0 || res.CrashRecovered != 0 {
		t.Errorf("killed %d, recovered %d; moved placements must not be replaced again",
			res.CrashKilled, res.CrashRecovered)
	}
	h0 := p.Regions()[1].hosts[0]
	for _, pl := range p.Regions()[1].placements {
		if pl.host == h0 && pl.diedAt < 0 {
			t.Errorf("%s on crashed %s left unstamped", pl.b.Name, h0.name)
		}
	}
}

// A blackout of a region evacuated under a long partition stamps the
// moved placements still alive in its cell.
func TestBlackoutAfterEvacuationStampsMoved(t *testing.T) {
	plan := partitionPastDwell()
	plan.Rules = append(plan.Rules, faults.Rule{Site: SiteBlackout, From: 18 * simclock.Time(ms), To: 19 * simclock.Time(ms), Prob: 1, Param: 2})
	p := New(testConfig(), mustInj(t, plan))
	res := p.Run()
	checkCells(t, p, res)
	checkPlacements(t, p, res)

	if res.Evacuated != 3 || res.Unrecovered != 0 {
		t.Fatalf("evacuated %d, unrecovered %d; want 3 and 0", res.Evacuated, res.Unrecovered)
	}
	for _, pl := range p.Regions()[1].placements {
		if !pl.moved || pl.diedAt < 0 {
			t.Errorf("%s: moved %v, diedAt %v; want moved and stamped dead", pl.b.Name, pl.moved, pl.diedAt)
		}
	}
}

// TestRunAllocationsPerRequest pins one whole clean run of the plane at
// its allocations per request: the router's request and Conn and the
// cell's request and Conn, plus the plane's setup spread over the run's
// requests. Heartbeats allocate nothing once the probe free list holds
// a record per probe in flight.
func TestRunAllocationsPerRequest(t *testing.T) {
	cfg := testConfig()
	cfg.Requests = 2000
	var res Result
	allocs := testing.AllocsPerRun(1, func() { res = New(cfg, nil).Run() })
	if res.OK != cfg.Requests {
		t.Fatalf("served %d of %d requests", res.OK, cfg.Requests)
	}
	if per := allocs / float64(cfg.Requests); per > 4.3 {
		t.Fatalf("%.3f allocations per request over a whole run, want at most 4.3", per)
	}
}
