package attack

import (
	"reflect"
	"testing"

	"lupine/internal/fabric"
	"lupine/internal/faults"
	"lupine/internal/simclock"
)

const us = simclock.Microsecond

func mkInj(t *testing.T, seed uint64, rules ...faults.Rule) *faults.Injector {
	t.Helper()
	in, err := faults.New(faults.Plan{Seed: seed, Rules: rules})
	if err != nil {
		t.Fatalf("faults.New: %v", err)
	}
	return in
}

func TestHardeningOptions(t *testing.T) {
	if opts, err := HardeningOptions(""); err != nil || opts != nil {
		t.Fatalf("empty level: got %v, %v", opts, err)
	}
	if opts, err := HardeningOptions(HardeningOff); err != nil || opts != nil {
		t.Fatalf("off: got %v, %v", opts, err)
	}
	opts, err := HardeningOptions(HardeningASLR)
	if err != nil || !reflect.DeepEqual(opts, []string{"RANDOMIZE_BASE"}) {
		t.Fatalf("aslr: got %v, %v", opts, err)
	}
	opts, err = HardeningOptions(HardeningFull)
	if err != nil {
		t.Fatalf("full: %v", err)
	}
	want := []string{"HARDENED_USERCOPY", "RANDOMIZE_BASE", "STACKPROTECTOR_STRONG", "STRICT_KERNEL_RWX"}
	if !reflect.DeepEqual(opts, want) {
		t.Fatalf("full: got %v want %v", opts, want)
	}
	if _, err := HardeningOptions("paranoid"); err == nil {
		t.Fatal("unknown level: want error")
	}
	if RuntimeScale(HardeningOff) != 1.0 || RuntimeScale(HardeningFull) <= RuntimeScale(HardeningASLR) {
		t.Fatal("runtime scale must grow with hardening")
	}
	if len(HardeningLevels()) != 3 {
		t.Fatalf("levels: %v", HardeningLevels())
	}
}

// A gated syscall surface bounces every probe before any payload runs:
// compromise is config-causal.
func TestSyscallGatingDeflects(t *testing.T) {
	s := simclock.NewEngine()
	in := mkInj(t, 7,
		faults.Rule{Site: SiteSyscallProbe, Prob: 1, Param: 1},
		faults.Rule{Site: SitePayload, Prob: 1},
	)
	cfg := DefaultConfig()
	cfg.Vectors = []string{"bpf"}
	p := New(cfg, s, nil, in)
	p.Register("vm0", Surface{HasSyscall: func(string) bool { return false }}, nil, "h0")
	p.Start(0)
	s.RunUntil(simclock.Time(3000 * us))

	st := p.Stats()
	if st.Attempts < 5 {
		t.Fatalf("campaign never ran: %+v", st)
	}
	if st.Deflected != st.Attempts || st.Landed != 0 || st.Compromised != 0 {
		t.Fatalf("gated surface must deflect everything: %+v", st)
	}
}

// runCampaign drives one hardening scenario: n open-syscall targets,
// probe and payload always armed, until the horizon.
func runCampaign(t *testing.T, sfc Surface, n int, seed uint64) Stats {
	t.Helper()
	s := simclock.NewEngine()
	in := mkInj(t, seed,
		faults.Rule{Site: SiteSyscallProbe, Prob: 1, Param: 1},
		faults.Rule{Site: SitePayload, Prob: 1},
	)
	cfg := DefaultConfig()
	cfg.Vectors = []string{"futex"}
	p := New(cfg, s, nil, in)
	for i := 0; i < n; i++ {
		p.Register("vm", sfc, nil, "h0")
	}
	p.Start(0)
	s.RunUntil(simclock.Time(10000 * us))
	return p.Stats()
}

// Priced hardening discounts payload success; an unhardened surface
// falls to every armed payload.
func TestHardeningDiscountsPayloads(t *testing.T) {
	off := runCampaign(t, Surface{}, 12, 11)
	hard := runCampaign(t, Surface{ASLR: true, WX: true}, 12, 11)
	if off.Compromised != 12 || off.PayloadFailed != 0 {
		t.Fatalf("unhardened surface must fall to every payload: %+v", off)
	}
	if hard.Compromised >= off.Compromised {
		t.Fatalf("hardening must discount compromise: hard %d vs off %d",
			hard.Compromised, off.Compromised)
	}
	if hard.PayloadFailed == 0 {
		t.Fatalf("hardened payload failures must be visible: %+v", hard)
	}
}

// Same seed, same campaign, byte-identical ledger.
func TestCampaignDeterminism(t *testing.T) {
	a := runCampaign(t, Surface{ASLR: true, WX: true}, 12, 23)
	b := runCampaign(t, Surface{ASLR: true, WX: true}, 12, 23)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

// An info-leak bypass fault voids the hardening gauntlet outright.
func TestHardeningBypassSite(t *testing.T) {
	s := simclock.NewEngine()
	in := mkInj(t, 7,
		faults.Rule{Site: SiteSyscallProbe, NthHit: 1, Param: 1},
		faults.Rule{Site: SitePayload, Prob: 1},
		faults.Rule{Site: SiteHardeningBypass, Prob: 1},
	)
	cfg := DefaultConfig()
	cfg.Vectors = []string{"futex"}
	cfg.ASLRBypass = 0.000001 // rolls would all but surely fail...
	cfg.WXBypass = 0.000001
	p := New(cfg, s, nil, in)
	p.Register("vm0", Surface{ASLR: true, WX: true}, nil, "h0")
	p.Start(0)
	s.RunUntil(simclock.Time(2000 * us))

	st := p.Stats()
	if st.Compromised != 1 || st.PayloadFailed != 0 { // ...but the leak skipped them
		t.Fatalf("bypass fault must void hardening: %+v", st)
	}
}

// A compromised ring-0 KML guest escalates to its host after the dwell,
// owning every co-located guest at once — even syscall-gated ones, since
// the takeover never crosses the syscall boundary or the wire.
func TestKMLEscalation(t *testing.T) {
	s := simclock.NewEngine()
	in := mkInj(t, 7)
	p := New(DefaultConfig(), s, nil, in)
	kml := p.Register("kml0", Surface{KML: true}, nil, "h0")
	peer := p.Register("vm1", Surface{HasSyscall: func(string) bool { return false }}, nil, "h0")
	other := p.Register("vm2", Surface{}, nil, "h1")
	p.Start(0)
	s.Schedule(simclock.Time(100*us), func(now simclock.Time) { p.compromise(kml, "probe", now) })
	s.RunUntil(simclock.Time(2000 * us))

	if !peer.Compromised() || peer.Cause() != "kml-escalation" {
		t.Fatalf("co-located guest must fall to the escalation: %+v", p.Stats())
	}
	if peer.CompromisedAt() != simclock.Time(500*us) {
		t.Fatalf("escalation must land at compromise+escalateAfter: %v", peer.CompromisedAt())
	}
	if other.Compromised() {
		t.Fatal("escalation must stay on the victim's host")
	}
	if st := p.Stats(); st.Escalations != 1 || st.ByEscalation != 1 {
		t.Fatalf("ledger: %+v", st)
	}
}

// A repave that deregisters the KML victim inside the escalation window
// averts the host takeover; an egress cut alone would not.
func TestKMLEscalationAvertedByRepave(t *testing.T) {
	s := simclock.NewEngine()
	in := mkInj(t, 7)
	p := New(DefaultConfig(), s, nil, in)
	kml := p.Register("kml0", Surface{KML: true}, nil, "h0")
	peer := p.Register("vm1", Surface{}, nil, "h0")
	p.Start(0)
	s.Schedule(simclock.Time(100*us), func(now simclock.Time) { p.compromise(kml, "probe", now) })
	s.Schedule(simclock.Time(300*us), func(now simclock.Time) { p.Deregister(kml, now) })
	s.RunUntil(simclock.Time(2000 * us))

	if peer.Compromised() {
		t.Fatal("deregistered victim must not escalate")
	}
	if st := p.Stats(); st.Escalations != 0 {
		t.Fatalf("ledger: %+v", st)
	}
}

// netFixture builds a two-node fabric (one zone each) on the test heap.
func netFixture(t *testing.T, s *simclock.Engine, in *faults.Injector) (*fabric.Network, *fabric.Node, *fabric.Node) {
	t.Helper()
	net := fabric.New(fabric.DefaultParams(), s, in)
	n0 := net.AddNodeZone("a", "za")
	n1 := net.AddNodeZone("b", "zb")
	net.SetTrunk("za", "zb", fabric.LinkSpec{Latency: 10 * us, Bandwidth: 1250 * 1000 * 1000})
	return net, n0, n1
}

// A quarantine's egress cut stops lateral movement at the victim's NIC:
// probes die on the wire and the peer never falls.
func TestLateralBlockedByEgressCut(t *testing.T) {
	s := simclock.NewEngine()
	in := mkInj(t, 7,
		faults.Rule{Site: SiteLateral, Prob: 1, Param: 1},
		faults.Rule{Site: SitePayload, Prob: 1},
	)
	net, n0, n1 := netFixture(t, s, in)
	cfg := DefaultConfig()
	cfg.Vectors = []string{"futex"}
	p := New(cfg, s, net, in)
	src := p.Register("vm0", Surface{}, n0, "h0")
	dst := p.Register("vm1", Surface{}, n1, "h1")
	p.Start(0)
	s.Schedule(0, func(now simclock.Time) { p.compromise(src, "probe", now) })
	n0.SetEgressCut(true)
	s.RunUntil(simclock.Time(3000 * us))

	st := p.Stats()
	if dst.Compromised() {
		t.Fatal("egress-cut source must not spread")
	}
	// The horizon may leave the final probe's timeout unresolved, so
	// blocked can trail launched by at most that one in-flight probe.
	if st.LateralBlocked < 3 || st.LateralBlocked < st.LateralProbes-1 {
		t.Fatalf("blocked probes must be accounted: %+v", st)
	}
}

// A trunk partition blocks lateral spread while it holds; when it heals
// mid-attack the next wave crosses and the peer falls — containment by
// the fabric is only as good as the partition's lifetime.
func TestLateralBlockedByPartitionUntilHeal(t *testing.T) {
	const healAt = 1600 * us
	s := simclock.NewEngine()
	in := mkInj(t, 7,
		faults.Rule{Site: SiteLateral, Prob: 1, Param: 1},
		faults.Rule{Site: SitePayload, Prob: 1},
		// Every inter-zone segment blackholes until the heal instant.
		faults.Rule{Site: fabric.SiteTrunkCut, To: simclock.Time(healAt), Prob: 1},
	)
	net, n0, n1 := netFixture(t, s, in)
	cfg := DefaultConfig()
	cfg.Vectors = []string{"futex"}
	p := New(cfg, s, net, in)
	src := p.Register("vm0", Surface{}, n0, "h0")
	dst := p.Register("vm1", Surface{}, n1, "h1")
	p.Start(0)
	s.Schedule(0, func(now simclock.Time) { p.compromise(src, "probe", now) })
	s.RunUntil(simclock.Time(4000 * us))

	st := p.Stats()
	if st.LateralBlocked < 2 {
		t.Fatalf("partition must block the early waves: %+v", st)
	}
	if !dst.Compromised() || dst.Cause() != "lateral" {
		t.Fatalf("healed trunk must let the spread through: %+v", st)
	}
	if dst.CompromisedAt() < simclock.Time(healAt) {
		t.Fatalf("spread landed during the partition: at %v", dst.CompromisedAt())
	}
}
