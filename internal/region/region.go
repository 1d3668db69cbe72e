// Package region is the multi-region control plane over the fleet
// layer: the paper's specialized-kernel pools, composed one level up
// into a deployment that survives the death of a whole region. Many
// simulated hosts — each with its own hostmem accountant — are grouped
// into regions; VM pools are bin-packed onto hosts against commit
// headroom; each region is a fleet cell (internal/fleet in attached
// mode) behind a gateway on a shared multi-switch fabric, with the
// global router in its own "core" zone dialing gateways across
// inter-region trunks. Every region keeps a snapshot store; the home
// region's warm capture is replicated to its peers ahead of need.
//
// Robustness is the headline: a region-level fault plane (region
// blackout, host crash, inter-region trunk partition) drives cross-
// region failover. The router discovers a dead region the only way a
// real one can — health probes over the fabric going unanswered — then
// surge-routes its share to the survivors, whose own admission control
// sheds what they cannot absorb. After a dwell (so a transient
// partition does not trigger a pointless mass migration), the dead
// region's backends are evacuated: restored into surviving regions
// from the replicated snapshots in microseconds, cold-booting only
// when a replica is missing or a restore-fault fires. Everything runs
// on one simclock.Engine, so a fixed seed replays bit-for-bit.
package region

import (
	"lupine/internal/attack"
	"lupine/internal/faults"
	"lupine/internal/fleet"
	"lupine/internal/metrics"
	"lupine/internal/simclock"
	"lupine/internal/snapshot"
	"lupine/internal/vmm"
)

// Region-owned fault-injection sites. Both are consulted once per
// control tick (not per segment), so arming them never perturbs the
// fabric's own fault stream.
const (
	// SiteBlackout takes a whole region dark: every host, VM and the
	// gateway die at the firing tick. Param is the 1-based region index.
	// A blackout is terminal for the run — evacuation, not recovery, is
	// the region's exit.
	SiteBlackout = "region/blackout"
	// SiteHostCrash kills one host and every VM placed on it. Param is
	// region*1000 + host, both 1-based. The region replaces the lost
	// backends from its own snapshot store.
	SiteHostCrash = "region/host-crash"
)

func init() {
	faults.RegisterSite(SiteBlackout, "region",
		"a whole region goes dark at this control tick; Param = 1-based region index")
	faults.RegisterSite(SiteHostCrash, "region",
		"one host and its VMs die; Param = region*1000 + host (1-based)")
}

// Fabric zone ids are interned in construction order and the injector
// plan is written before the plane exists, so the mapping is part of
// the package contract: the router's core zone is always 1 and region
// i's zone is always i+2.
const ZoneCore = 1

// RegionZone maps a 0-based region index to its fabric zone id — the
// id space fabric.SiteTrunkCut params address.
func RegionZone(i int) int { return i + 2 }

// CutInto builds the trunk-cut param that blackholes all traffic INTO
// region i (its own egress still flows — an asymmetric partition).
func CutInto(i int) int64 { return int64(RegionZone(i)) }

// HostSpec sizes one simulated host's memory accountant. Every host
// admits commitments up to hostOvercommit x Capacity.
type HostSpec struct {
	Capacity int64 // physical bytes available to guest memory
}

// RegionSpec describes one region's host inventory.
type RegionSpec struct {
	Name  string
	Hosts int
	Host  HostSpec
}

// Identity is one kernel identity in a heterogeneous deployment: a
// distinct specialized kernel (its own snapshot lineage, VM size and
// cold-boot price) sharing hosts and regions with the others. The paper
// builds one kernel per application; a real deployment runs many such
// kernels side by side, and the control plane must keep each lineage's
// warm pool, crash recovery and rolling upgrades separate while
// bin-packing all of them against the same host memory.
type Identity struct {
	Name     string
	Kernel   string             // kernel identity (snapshot.KernelKey)
	Monitor  string             // monitor half of the store key
	Snapshot *snapshot.Snapshot // warm capture; nil means this identity always cold-boots
	VMBytes  int64              // per-VM commit (0 = vmBytes)
	ColdBoot simclock.Duration  // 0 = Config.ColdBoot
}

// UpgradeSpec schedules a rolling kernel upgrade for one identity: in
// each region in turn, surge capacity boots first, then every backend
// of that identity drains, rebuilds and re-admits — the fleet layer's
// upgrade discipline, replayed per identity across the whole plane.
type UpgradeSpec struct {
	Identity     string        // Identity.Name to upgrade
	Start        simclock.Time // when the rollout begins
	DrainTimeout simclock.Duration

	// Rebuild prices rebuilding the identity's kernel for the k-th
	// replacement plane-wide (0-based). Wired to the build cache, the
	// first rebuild pays a real build and the rest hit the artifact
	// cache. Nil means free.
	Rebuild func(k int) simclock.Duration
}

// IdentityStats is one kernel identity's view of a heterogeneous run.
type IdentityStats struct {
	Name     string
	Kernel   string
	Placed   int // initial placements across all regions
	Restores int // warm restores (crash replacements, evacuations, upgrades)
	Cold     int // cold boots where no replica was resident
	Upgraded int // backends replaced by this identity's rolling upgrade
}

// Config tunes the control plane. All durations are virtual.
type Config struct {
	Regions       []RegionSpec
	PoolPerRegion int // backends placed per region at build time

	// Identities makes the deployment heterogeneous: pool slot v in
	// every region runs Identities[v % len(Identities)]. Empty means the
	// classic homogeneous plane described by the Snapshot / Monitor /
	// ColdBoot singletons below, each VM committing vmBytes.
	Identities []Identity

	// Upgrades schedules per-identity rolling kernel upgrades.
	Upgrades []UpgradeSpec

	// Cell tunes each region's fleet: its probes, breakers, policy and
	// wire apply per cell; traffic comes from the router.
	Cell fleet.Config

	// Timeline, when set, supplies each initial placement's service
	// record (region and vm are 0-based); nil means every VM serves
	// forever. Comparator pools that die of the workload's first fork
	// plug in here — replacements and evacuees inherit the victim's
	// timeline, so a kernel that cannot survive the workload keeps
	// dying wherever the control plane restores it.
	Timeline func(region, vm int) fleet.Timeline

	// Requests is the global traffic: arrivals from trafficStart,
	// interarrival apart, jittered by a seeded draw in [0, arrivalJitter).
	Requests int

	// Breach, when set, arms the security containment plane: a seeded
	// exploit campaign (internal/attack) runs against the placements and
	// the control plane answers with the quarantine → repave →
	// evacuate ladder. Nil means no campaign — the classic plane.
	Breach *BreachConfig

	// Warm pools: Snapshot (may be nil) is the home region's captured
	// image; when Replicate is set it is shipped to every peer store at
	// replBandwidth bytes per virtual second before it can be restored
	// there. Evacuations and crash replacements restore from the local
	// store and fall back to a ColdBoot when no replica (or a
	// restore-fault) leaves them no choice.
	Snapshot  *snapshot.Snapshot
	Monitor   *vmm.Monitor
	Replicate bool
	ColdBoot  simclock.Duration

	Seed uint64
}

// The control plane's fixed tuning. All durations are virtual.
const (
	// hostOvercommit is every host's admission bound multiplier.
	hostOvercommit = 1.5
	// vmBytes is the commit each placement promises its host, unless
	// its identity says otherwise.
	vmBytes int64 = 128 << 20

	// Global traffic starts once the pools are provisioned.
	trafficStart  = 2 * simclock.Time(simclock.Millisecond)
	interarrival  = 50 * simclock.Microsecond
	arrivalJitter = 20 * simclock.Microsecond

	// Router dispatch: the per-connection response deadline and the
	// global retry policy. Payloads on the router->gateway hop are the
	// cells' own fleet.RequestBytes and fleet.ResponseBytes.
	respTimeout = 4 * simclock.Millisecond
	deadline    = 12 * simclock.Millisecond // per-request global deadline
	maxAttempts = 3                         // dispatches per request across regions

	// Failover detection: the router probes every gateway each
	// probeInterval; failAfter consecutive misses declare the region
	// dead, riseAfter consecutive replies re-admit it.
	probeInterval = 1 * simclock.Millisecond
	probeTimeout  = 600 * simclock.Microsecond
	failAfter     = 2
	riseAfter     = 2

	// evacuateAfter is the dwell between declaring a region dead and
	// evacuating it — long enough that a healed partition rejoins
	// instead of triggering a mass migration.
	evacuateAfter = 8 * simclock.Millisecond

	// controlEvery is the fault-plane tick consulting the region sites.
	controlEvery = 500 * simclock.Microsecond

	// The inter-region trunk (core<->region, per region).
	trunkLatency   = 150 * simclock.Microsecond
	trunkBandwidth = 1250 * 1000 * 1000

	// replBandwidth is the warm-pool replication rate, in bytes per
	// virtual second.
	replBandwidth = 4 * 1000 * 1000 * 1000
)

// identities resolves the deployment's identity list: the configured
// heterogeneous set, or one synthetic identity for the classic
// homogeneous plane.
func (c *Config) identities() []Identity {
	if len(c.Identities) > 0 {
		ids := make([]Identity, len(c.Identities))
		for i, id := range c.Identities {
			if id.VMBytes == 0 {
				id.VMBytes = vmBytes
			}
			if id.ColdBoot == 0 {
				id.ColdBoot = c.ColdBoot
			}
			if id.Snapshot != nil {
				if id.Kernel == "" {
					id.Kernel = id.Snapshot.Kernel
				}
				if id.Monitor == "" {
					id.Monitor = id.Snapshot.Monitor
				}
			}
			ids[i] = id
		}
		return ids
	}
	kernel, monitor := "kernel", "monitor"
	if c.Snapshot != nil {
		kernel, monitor = c.Snapshot.Kernel, c.Snapshot.Monitor
	}
	return []Identity{{
		Name: "default", Kernel: kernel, Monitor: monitor,
		Snapshot: c.Snapshot, VMBytes: vmBytes, ColdBoot: c.ColdBoot,
	}}
}

// DefaultConfig is a three-region plane, comfortably provisioned so
// that two survivors absorb a third region's share.
func DefaultConfig() Config {
	const mib = int64(1) << 20
	return Config{
		Regions: []RegionSpec{
			{Name: "r0", Hosts: 2, Host: HostSpec{Capacity: 1024 * mib}},
			{Name: "r1", Hosts: 2, Host: HostSpec{Capacity: 1024 * mib}},
			{Name: "r2", Hosts: 2, Host: HostSpec{Capacity: 1024 * mib}},
		},
		PoolPerRegion: 3,
		Cell:          fleet.DefaultConfig(),

		Requests: 2000,

		Replicate: true,
		ColdBoot:  5 * simclock.Millisecond,

		Seed: 42,
	}
}

// RegionStats is one region's view of the run.
type RegionStats struct {
	Name   string
	Shed   int  // refused by this cell's admission (backlog, no backend)
	TookIn int  // evacuated backends restored into this region
	Dead   bool // router verdict at end of run
}

// Result is what one control-plane run reports.
type Result struct {
	Total  int
	OK     int
	Shed   int // refused with no healthy region to try
	Failed int
	Events int
	End    simclock.Time

	Latencies []simclock.Duration

	Placed          int
	PlacementDenied int

	Failovers  int                 // dead declarations by the router
	FalseTrips int                 // declarations while the region was actually alive
	Rejoins    int                 // dead regions that healed back into rotation
	Detect     []simclock.Duration // ground-truth-dark -> declaration, per true failover

	Evacuated     int                 // backends restored into survivors from a dead region
	EvacRestores  int                 // evacuations served by a snapshot replica
	EvacFallbacks int                 // restore-fault fallbacks (cold boot after a doomed restore)
	EvacCold      int                 // evacuations with no replica at all
	EvacReady     []simclock.Duration // per-evacuee provisioning cost (restore or cold)
	EvacStart     simclock.Time
	EvacEnd       simclock.Time

	HostCrashes    int // hosts the fault plane killed
	CrashKilled    int // VMs those crashes took down
	CrashRecovered int // replacements restored in-region

	Unrecovered int // taken out of service and never replaced anywhere

	Upgraded    int           // backends replaced by rolling upgrades
	UpgradeDone simclock.Time // last rollout completion (-1 = none ran)

	Repl snapshot.ReplStats

	// Attack and Breach report the exploit campaign and the containment
	// ladder's answer (zero unless Config.Breach armed them).
	Attack attack.Stats
	Breach BreachStats

	PerRegion   []RegionStats
	PerIdentity []IdentityStats
	Cells       []fleet.Result
}

// Availability is the fraction of offered requests that were served.
func (r *Result) Availability() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.OK) / float64(r.Total)
}

// Percentile returns the p-th percentile served latency.
func (r *Result) Percentile(p float64) simclock.Duration {
	return metrics.Percentile(r.Latencies, p)
}

// DetectPercentile returns the p-th percentile failover detection
// latency over true failovers (0 when none happened).
func (r *Result) DetectPercentile(p float64) simclock.Duration {
	return metrics.Percentile(r.Detect, p)
}

// EvacReadyPercentile returns the p-th percentile per-evacuee
// provisioning cost (0 when no evacuation ran). The median separates
// restore-backed evacuations from cold ones even when one fallback's
// cold boot dominates the wave's wall time.
func (r *Result) EvacReadyPercentile(p float64) simclock.Duration {
	return metrics.Percentile(r.EvacReady, p)
}

// EvacDuration is the wall span of the evacuation wave (0 = none ran).
func (r *Result) EvacDuration() simclock.Duration {
	if r.EvacEnd <= r.EvacStart {
		return 0
	}
	return r.EvacEnd.Sub(r.EvacStart)
}

// Containment is the fraction of compromised placements the ladder
// fully contained (quarantined AND repaved). 1 when nothing was
// compromised: a campaign that never landed is perfectly contained.
func (r *Result) Containment() float64 {
	if r.Attack.Compromised == 0 {
		return 1
	}
	return float64(r.Breach.Contained) / float64(r.Attack.Compromised)
}

// DwellPercentile returns the p-th percentile compromise dwell — the
// span a compromised placement stayed on the wire before its egress was
// cut (end of run when it never was). 0 when nothing was compromised.
func (r *Result) DwellPercentile(p float64) simclock.Duration {
	return metrics.Percentile(r.Breach.Dwell, p)
}
