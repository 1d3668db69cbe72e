package experiments

// The netsplit experiment: the fleet's robustness results, re-measured
// over a wire that can actually fail. fleetchaos already storms the
// backends; netsplit storms the NETWORK — an asymmetric partition that
// silences one VM's ingress while its egress still flows, a reverse
// partition that lets another VM hear requests and answer into the
// void, flapping links, segment loss and delay weather — while the
// backends themselves suffer a mild staggered memory spike. Every
// dispatch, probe and response crosses internal/fabric, so breaker
// trips during the storm are the wire lying about live backends
// (counted as false trips), retransmission storms are visible per
// segment, and the shed path is a real SYN backlog overflowing. The
// same storm runs under all three balancer policies (round-robin,
// least-loaded, consistent-hash) to show the policy choice is a latency
// and affinity trade, not an availability one.

import (
	"fmt"

	"lupine/internal/fabric"
	"lupine/internal/faults"
	"lupine/internal/fleet"
	"lupine/internal/guest"
	"lupine/internal/libos"
	"lupine/internal/metrics"
	"lupine/internal/simclock"
	"lupine/internal/slo"
)

func init() { netsplitStorm.register() }

// Fabric node ids are 1-based in attachment order: the balancer is
// always node 1, the pool follows. SitePartition params address these.
const (
	netsplitNodeLB  = 1
	netsplitNodeVM0 = 2
	netsplitNodeVM1 = 3
	netsplitNodeVM2 = 4
)

// netsplitBackendPlan is backend i's guest-side storm: one staggered
// memory spike (OOM kill under MULTIPROCESS, kernel panic without) plus
// light syscall noise. Mild on purpose — the point of netsplit is that
// the NETWORK fails while the backends mostly live, so breaker trips
// during partitions are false trips.
func netsplitBackendPlan(seed uint64, i int) faults.Plan {
	const (
		ms = simclock.Time(simclock.Millisecond)
		mb = int64(guest.MiB)
	)
	off := simclock.Time(i) * 12 * ms
	return faults.Plan{
		Seed: seed + 0xB0A7 + uint64(i)*7919,
		Rules: []faults.Rule{
			{Site: guest.SiteOOMPressure, From: 6*ms + off, To: 30*ms + off, Prob: 1, Limit: 1, Param: 350 * mb},
			{Site: guest.SiteSyscallTransient, From: 2 * ms, Prob: 0.05, Limit: 2},
		},
	}
}

// netsplitWirePlan is the storm the fabric itself suffers, keyed to
// traffic start so every variant faces the same weather regardless of
// boot time. Two asymmetric cuts are the centerpiece:
//
//   - a partition INTO vm1: the balancer's SYNs and probes to vm1
//     vanish while vm1's own egress still flows — SYN retransmission
//     exhaustion, probe false negatives, breaker opens against a live VM;
//   - a partition OUT OF vm2: vm2 hears requests, accepts and serves
//     them, and its responses die on the wire — the client's response
//     deadline is the only way the front-end finds out.
//
// Flap, loss and delay weather runs throughout, and the fleet's legacy
// probe/dispatch drop sites ride the same wire.
func netsplitWirePlan(seed uint64, start simclock.Time) faults.Plan {
	const ms = simclock.Time(simclock.Millisecond)
	return faults.Plan{
		Seed: seed ^ 0x5EA51DE,
		Rules: []faults.Rule{
			{Site: fabric.SitePartition, From: start + 10*ms, To: start + 28*ms, Prob: 1, Param: netsplitNodeVM1},
			{Site: fabric.SitePartition, From: start + 45*ms, To: start + 60*ms, Prob: 1, Param: -netsplitNodeVM2},
			{Site: fabric.SiteFlap, From: start, To: start + 90*ms, Prob: 0.004, Param: 400},
			{Site: fabric.SiteLoss, From: start, To: start + 90*ms, Prob: 0.02},
			{Site: fabric.SiteDelay, From: start, Prob: 0.06, Param: 150},
			{Site: fleet.SiteProbeDrop, Prob: 0.01},
			{Site: fleet.SiteDispatchDrop, From: start + 65*ms, To: start + 80*ms, Prob: 0.01},
		},
	}
}

// netsplitConfig is fleetConfig with the policy under test and a
// tighter response deadline, so a response eaten by the out-partition
// leaves deadline room for a retry elsewhere.
func netsplitConfig(seed uint64, policy string) fleet.Config {
	cfg := fleetConfig(seed)
	cfg.Policy = policy
	cfg.HashClients = 64
	cfg.Net.ResponseTimeout = 4 * simclock.Millisecond
	return cfg
}

// netsplitResult is one table row plus what the tests assert on.
type netsplitResult struct {
	System    string
	Policy    string
	Res       fleet.Result
	Net       fabric.Stats
	Recovered bool // every initial backend's timeline ends up (no unrecovered crash)

	scope *slo.Scope // SLO scope, set on the lupine+mp/rr row only
}

// netsplitRecovered reports whether every initial pool member's
// timeline ends in the up state — i.e. every crash the storm caused was
// recovered (OOM kill survived or supervisor restart succeeded).
func netsplitRecovered(backends []*fleet.Backend) bool {
	for _, b := range backends[:fleetPoolSize] {
		if !b.Timeline.UpAfter {
			return false
		}
	}
	return true
}

// netsplitRun drives one (pool, policy) row through the wire storm.
// scoped rows additionally get an SLO scope sampling the row's
// availability and latency SLIs on the fleet clock, with the wire
// injector attached so availability burns attribute to the partitions.
func netsplitRun(env *Env, backends []*fleet.Backend, policy, track string, scoped bool) (netsplitResult, error) {
	recovered := netsplitRecovered(backends)
	cfg := netsplitConfig(env.Seed, policy)
	cfg.TrafficStart = simclock.Time(fleetBootTime(backends) + simclock.Millisecond)
	winj, err := faults.New(netsplitWirePlan(env.Seed, cfg.TrafficStart))
	if err != nil {
		return netsplitResult{}, err
	}
	var objs []slo.Objective
	if scoped {
		objs = sloFleet(track)
	}
	row := env.row(track, winj, sloEvery, objs...)
	f := fleet.New(cfg, backends, nil, winj)
	res := runRow(row, f)
	return netsplitResult{
		Policy:    policy,
		Res:       res,
		Net:       f.Net().Stats(),
		Recovered: recovered,
		scope:     row.scope,
	}, nil
}

var netsplitStorm = &storm[netsplitResult]{
	id:      "netsplit",
	title:   "Partition/loss storms on the virtual fabric, per LB policy (robustness)",
	systems: []string{"lupine", "lupine+mp"},
	rows: func(env *Env, name string) ([]netsplitResult, error) {
		u, err := redis(name)
		if err != nil {
			return nil, err
		}
		policies := []string{fleet.PolicyRR}
		if name == "lupine+mp" {
			policies = append(policies, fleet.PolicyLeast, fleet.PolicyHash)
		}
		var out []netsplitResult
		for _, policy := range policies {
			track := fmt.Sprintf("netsplit/%s/%s", name, policy)
			backends, err := env.linuxPool(u, track, netsplitBackendPlan)
			if err != nil {
				return nil, err
			}
			r, err := netsplitRun(env, backends, policy, track, name == "lupine+mp" && policy == fleet.PolicyRR)
			if err != nil {
				return nil, err
			}
			r.System = name
			out = append(out, r)
		}
		return out, nil
	},
	// The unikernel comparators: the pool dies of the workload's first
	// fork before the partition even lands — the storm has nobody left
	// to partition, and the balancer sheds at the wire.
	comparator: func(env *Env, s *libos.System) (netsplitResult, error) {
		track := "netsplit/" + s.Name
		r, err := netsplitRun(env, env.libosPool(libosCrash(s, simclock.Millisecond), track), fleet.PolicyRR, track, false)
		r.System = s.Name
		return r, err
	},
	scope: func(r netsplitResult) *slo.Scope { return r.scope },
	caption: func(seed uint64) string {
		return fmt.Sprintf("fleet availability under asymmetric partitions and link flaps on the virtual fabric (seed %d, %d VMs)",
			seed, fleetPoolSize)
	},
	columns: []string{"system", "policy", "availability", "p50 (µs)", "p99 (µs)", "shed rate",
		"retries", "rexmits", "opens", "false trips", "recovered"},
	cells: func(r netsplitResult) []any {
		rec := "yes"
		if !r.Recovered {
			rec = "NO"
		}
		return []any{r.System, r.Policy, metrics.Percent(r.Res.Availability()),
			r.Res.Percentile(50).Microseconds(), r.Res.Percentile(99).Microseconds(),
			metrics.Percent(r.Res.ShedRate()), r.Res.Retries, r.Res.Retransmits, r.Res.BreakerOpens,
			r.Res.FalseTrips, rec}
	},
	notes: []string{
		"identical wire storm per row: an 18 ms partition INTO vm1 (its egress still flows), a 15 ms partition OUT OF vm2 (it serves into the void), flapping links, 2% segment loss and delay weather; backends additionally take one staggered 350 MiB memory spike each",
		"false trips are breaker opens against a backend that was actually alive — the wire lied; the balancer's probes cannot tell a partition from a dead VM, which is the point",
		"all dispatch/probe/response traffic crosses internal/fabric: the shed path is a real SYN backlog overflowing, failures are retransmission exhaustion or response deadlines",
		"policy changes trade latency and affinity, not availability: rr/least/hash hold the same floor because shed and retry policy, not placement, decide survival",
		"unikernel comparator pools die of the workload's first fork before the partition lands; recovered=NO marks unrecovered crashes",
	},
}
