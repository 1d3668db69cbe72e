package region

import (
	"reflect"
	"testing"

	"lupine/internal/faults"
	"lupine/internal/simclock"
	"lupine/internal/snapshot"
)

// identSnapshot is one identity's warm capture fixture.
func identSnapshot(kernel string, rss int64) *snapshot.Snapshot {
	return &snapshot.Snapshot{
		ID:        "cafe" + kernel,
		Kernel:    kernel,
		Monitor:   "firecracker",
		BootTotal: 5 * ms,
		BaseRSS:   rss,
	}
}

// heteroConfig is a three-identity plane: three kernels with different
// VM sizes sharing every region's hosts.
func heteroConfig() Config {
	cfg := testConfig()
	cfg.Snapshot = nil
	cfg.Identities = []Identity{
		{Name: "redis", Snapshot: identSnapshot("k-redis", 8*mib), VMBytes: 96 * mib},
		{Name: "nginx", Snapshot: identSnapshot("k-nginx", 8*mib), VMBytes: 64 * mib},
		{Name: "memcached", Snapshot: identSnapshot("k-memcached", 8*mib), VMBytes: 48 * mib},
	}
	return cfg
}

func TestHeterogeneousPoolsPlaceAndServe(t *testing.T) {
	cfg := heteroConfig()
	p := New(cfg, nil)
	res := p.Run()
	checkCells(t, p, res)
	checkPlacements(t, p, res)
	if res.OK != res.Total {
		t.Errorf("mixed plane served %d/%d (shed %d, failed %d)", res.OK, res.Total, res.Shed, res.Failed)
	}
	if len(res.PerIdentity) != 3 {
		t.Fatalf("PerIdentity has %d entries, want 3", len(res.PerIdentity))
	}
	// PoolPerRegion=3 over 3 identities: one of each per region.
	for _, st := range res.PerIdentity {
		if st.Placed != len(cfg.Regions) {
			t.Errorf("%s: Placed = %d, want %d", st.Name, st.Placed, len(cfg.Regions))
		}
	}
	if res.PerIdentity[0].Kernel != "k-redis" {
		t.Errorf("identity 0 kernel = %q", res.PerIdentity[0].Kernel)
	}
}

// A host crash in a mixed region restores each victim from its own
// identity's snapshot lineage; an identity without a capture cold-boots.
func TestPerIdentityLineages(t *testing.T) {
	cfg := heteroConfig()
	cfg.Identities[2].Snapshot = nil // memcached has no warm capture
	cfg.Identities[2].Kernel = "k-memcached"
	cfg.Identities[2].Monitor = "firecracker"
	// All three of r0's VMs land across 2 hosts; crash r0/h0 (Param
	// 1*1000+1) at 6 ms and let the region replace them locally.
	inj := mustInj(t, faults.Plan{
		Seed: 7,
		Rules: []faults.Rule{
			{Site: SiteHostCrash, From: 6 * simclock.Time(ms), To: 7 * simclock.Time(ms), Prob: 1, Param: 1001},
		},
	})
	p := New(cfg, inj)
	res := p.Run()
	checkCells(t, p, res)
	checkPlacements(t, p, res)
	if res.HostCrashes != 1 || res.CrashKilled == 0 {
		t.Fatalf("crashes = %d, killed = %d", res.HostCrashes, res.CrashKilled)
	}
	if res.CrashRecovered != res.CrashKilled {
		t.Errorf("recovered %d of %d killed", res.CrashRecovered, res.CrashKilled)
	}
	warmRestores, cold := 0, 0
	for _, st := range res.PerIdentity {
		warmRestores += st.Restores
		if st.Name == "memcached" {
			cold = st.Cold
			if st.Restores != 0 {
				t.Errorf("memcached has no lineage yet restored %d times", st.Restores)
			}
		}
	}
	// Which identities were on h0 depends on packing, but every warm
	// replacement must come from its own lineage and every memcached
	// replacement must cold-boot.
	if warmRestores+cold != res.CrashKilled {
		t.Errorf("restores %d + cold %d != killed %d", warmRestores, cold, res.CrashKilled)
	}
	if res.Unrecovered != 0 {
		t.Errorf("Unrecovered = %d", res.Unrecovered)
	}
}

// A rolling upgrade replaces exactly one identity's backends, prices
// its rebuilds through the hook, and never dents availability.
func TestRollingUpgradePerIdentity(t *testing.T) {
	cfg := heteroConfig()
	var rebuilds []int
	cfg.Upgrades = []UpgradeSpec{{
		Identity:     "nginx",
		Start:        4 * simclock.Time(ms),
		DrainTimeout: 2 * ms,
		Rebuild: func(k int) simclock.Duration {
			rebuilds = append(rebuilds, k)
			if k == 0 {
				return 3 * ms // first rebuild pays the build
			}
			return 100 * simclock.Microsecond // the rest hit the cache
		},
	}}
	p := New(cfg, nil)
	res := p.Run()
	checkCells(t, p, res)
	checkPlacements(t, p, res)
	if res.OK != res.Total {
		t.Errorf("upgrade dented availability: %d/%d (shed %d, failed %d)",
			res.OK, res.Total, res.Shed, res.Failed)
	}
	if res.Upgraded != len(cfg.Regions) {
		t.Errorf("Upgraded = %d, want %d (one nginx per region)", res.Upgraded, len(cfg.Regions))
	}
	if res.UpgradeDone < 0 {
		t.Error("UpgradeDone never set")
	}
	if want := []int{0, 1, 2}; !reflect.DeepEqual(rebuilds, want) {
		t.Errorf("rebuild sequence = %v, want %v", rebuilds, want)
	}
	for _, st := range res.PerIdentity {
		want := 0
		if st.Name == "nginx" {
			want = len(cfg.Regions)
		}
		if st.Upgraded != want {
			t.Errorf("%s: Upgraded = %d, want %d", st.Name, st.Upgraded, want)
		}
	}
	if res.Unrecovered != 0 {
		t.Errorf("Unrecovered = %d", res.Unrecovered)
	}
}

// The full heterogeneous storm — mixed pools, a host crash, a rolling
// upgrade — replays bit-for-bit under one seed.
func TestHeterogeneousDeterministicReplay(t *testing.T) {
	run := func() Result {
		cfg := heteroConfig()
		cfg.Upgrades = []UpgradeSpec{{
			Identity:     "redis",
			Start:        5 * simclock.Time(ms),
			DrainTimeout: 2 * ms,
			Rebuild: func(k int) simclock.Duration {
				if k == 0 {
					return 2 * ms
				}
				return 100 * simclock.Microsecond
			},
		}}
		inj := mustInj(t, faults.Plan{
			Seed: 11,
			Rules: []faults.Rule{
				{Site: SiteHostCrash, From: 7 * simclock.Time(ms), To: 8 * simclock.Time(ms), Prob: 1, Param: 2001},
			},
		})
		p := New(cfg, inj)
		res := p.Run()
		checkCells(t, p, res)
		checkPlacements(t, p, res)
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Error("same-seed heterogeneous runs diverged")
	}
}
