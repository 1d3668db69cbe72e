// Package attack is the deterministic exploit-injection plane: a seeded
// campaign of syscall-level probes, payload escalations and lateral
// movement, run against the control plane's placements on the same
// simclock.Engine as everything else. Compromise is config-causal, the
// paper's specialization story turned adversarial:
//
//   - A syscall probe only lands if the targeted syscall is exposed by
//     the victim kernel's kconfig — every Table-1 option a build turned
//     off is an exploit vector that bounces. A libos comparator's single
//     protection domain exposes everything.
//   - A landed probe still needs its payload to stick: ASLR/KASLR and
//     W^X — priced kconfig options in kbuild — each discount payload
//     success by a seeded roll, unless an info-leak fault forces the
//     bypass.
//   - Ring-0 KML amplifies the blast radius: a compromised KML guest IS
//     its monitor, so after a short escalation window it owns the host
//     and poisons every co-located backend at once. Only a repave that
//     lands inside the window averts it — a NIC-level egress cut cannot,
//     because the escalation never touches the wire.
//   - Lateral movement is real traffic: compromised guests probe peers
//     over the fabric, so a quarantine's egress cut, a trunk partition
//     or a dead region all stop the spread the way they would in
//     production — at the wire, not by fiat.
//
// Detection is canary-based: a compromised guest trips per-sweep anomaly
// instants, and enough consecutive anomalies raise the detect hook the
// containment ladder (region plane) answers. All randomness comes from
// one seeded stream and the injector's plan, so a fixed seed replays the
// whole breach bit-for-bit.
package attack

import (
	"fmt"
	"sort"

	"lupine/internal/fabric"
	"lupine/internal/faults"
	"lupine/internal/kbuild"
	"lupine/internal/simclock"
	"lupine/internal/telemetry"
)

// Attack-plane fault-injection sites. The campaign consults them in a
// fixed per-tick order, so arming any of them never perturbs another
// plane's injector stream.
const (
	// SiteSyscallProbe launches one exploit attempt at a campaign tick.
	// Param picks the syscall vector: 1-based index into Config.Vectors,
	// 0 for a seeded draw. Whether it lands is the victim's kconfig.
	SiteSyscallProbe = "attack/syscall-probe"
	// SitePayload arms a landed probe's payload; a probe whose payload
	// rule does not fire reconnoitres but never compromises.
	SitePayload = "attack/payload"
	// SiteHardeningBypass is an info leak defeating the victim's priced
	// hardening (ASLR/KASLR and W^X) outright: a landed, armed payload
	// skips the per-feature bypass rolls when this fires.
	SiteHardeningBypass = "attack/hardening-bypass"
	// SiteLateral launches one lateral probe from a compromised guest at
	// a wave tick; the probe still has to cross the fabric to land.
	SiteLateral = "attack/lateral"
)

func init() {
	faults.RegisterSite(SiteSyscallProbe, "attack",
		"exploit attempt at a campaign tick; Param = 1-based vector index (0 = seeded draw)")
	faults.RegisterSite(SitePayload, "attack",
		"arms a landed probe's payload; without it the probe only reconnoitres")
	faults.RegisterSite(SiteHardeningBypass, "attack",
		"info leak defeating ASLR/W^X: a landed payload skips the bypass rolls")
	faults.RegisterSite(SiteLateral, "attack",
		"lateral probe from a compromised guest; must still cross the fabric")
}

// Hardening levels the bunny pipeline and the breach experiment sweep.
// Each maps to priced kconfig options (boot-time and image-size costs
// live in the kernel database), so hardening is a build decision with a
// measurable price, not a free flag.
const (
	HardeningOff  = "off"  // no mitigation options
	HardeningASLR = "aslr" // RANDOMIZE_BASE only
	HardeningFull = "full" // every mitigation option the base config dropped
)

// HardeningLevels lists the valid levels in escalation order.
func HardeningLevels() []string { return []string{HardeningOff, HardeningASLR, HardeningFull} }

// HardeningOptions maps a level to the kconfig options it enables. The
// empty level means off. Options come back sorted, matching the spec
// canonicalization the bunny pipeline digests.
func HardeningOptions(level string) ([]string, error) {
	switch level {
	case "", HardeningOff:
		return nil, nil
	case HardeningASLR:
		return []string{"RANDOMIZE_BASE"}, nil
	case HardeningFull:
		opts := []string{"HARDENED_USERCOPY", "RANDOMIZE_BASE", "STACKPROTECTOR_STRONG", "STRICT_KERNEL_RWX"}
		sort.Strings(opts)
		return opts, nil
	}
	return nil, fmt.Errorf("attack: unknown hardening level %q (valid: off, aslr, full)", level)
}

// RuntimeScale prices a hardening level's data-path overhead as a
// service-time multiplier: stack canaries and usercopy checks sit on
// every request. The boot-time price is separate — it comes from the
// enabled options' kconfig costs through the build pipeline.
func RuntimeScale(level string) float64 {
	switch level {
	case HardeningASLR:
		return 1.01
	case HardeningFull:
		return 1.04
	}
	return 1.0
}

// Surface is one guest's exploitability, derived from its build: which
// syscalls its kconfig exposes, which hardening features stand in a
// payload's way, and whether the app runs ring-0 (KML).
type Surface struct {
	// HasSyscall reports whether the named syscall is reachable. Nil
	// means everything is — a libos comparator's single protection
	// domain, where there is no syscall boundary to gate.
	HasSyscall func(name string) bool

	ASLR bool // RANDOMIZE_BASE built in: payloads must beat randomization
	WX   bool // STRICT_KERNEL_RWX built in: payloads must beat W^X
	KML  bool // ring-0 app: a compromise escalates to the host
}

// FromImage derives a surface from a built kernel image: Table-1 gating
// decides syscall reachability, the mitigation options decide the
// hardening features, and KERNEL_MODE_LINUX decides ring.
func FromImage(img *kbuild.Image) Surface {
	return Surface{
		HasSyscall: img.HasSyscall,
		ASLR:       img.Enabled("RANDOMIZE_BASE"),
		WX:         img.Enabled("STRICT_KERNEL_RWX"),
		KML:        img.KML(),
	}
}

// exposes reports whether a probe against the named syscall reaches
// attackable code on this surface.
func (s Surface) exposes(syscall string) bool {
	return s.HasSyscall == nil || s.HasSyscall(syscall)
}

// Config tunes one campaign.
type Config struct {
	// Vectors are the syscall names probes aim at; rule Params index
	// into this list (1-based, 0 = seeded draw).
	Vectors []string

	// Payload discounts: the probability a landed, armed payload beats
	// each hardening feature the victim built in.
	ASLRBypass float64 // vs RANDOMIZE_BASE
	WXBypass   float64 // vs STRICT_KERNEL_RWX

	Seed uint64
}

// The campaign's fixed pacing, set for the region plane's default
// traffic window. All durations are virtual.
const (
	// attackEvery is the campaign tick period: each tick consults
	// SiteSyscallProbe once, the first one attackEvery in.
	attackEvery = 500 * simclock.Microsecond

	// Lateral movement: every lateralEvery, each compromised guest
	// probes up to lateralFanout peers over the fabric; a probe that
	// goes unanswered within lateralTimeout is blocked spread.
	lateralEvery   = 500 * simclock.Microsecond
	lateralFanout  = 2
	lateralTimeout = 200 * simclock.Microsecond

	// escalateAfter is the dwell between compromising a KML guest and
	// owning its host. A repave landing inside the window averts it.
	escalateAfter = 400 * simclock.Microsecond

	// Canary detection: every canaryEvery sweep, each compromised
	// undetected guest trips one anomaly instant; canaryFailAfter
	// consecutive anomalies raise the detect hook.
	canaryEvery     = 500 * simclock.Microsecond
	canaryFailAfter = 2
)

// DefaultConfig is the campaign every breach run starts from.
func DefaultConfig() Config {
	return Config{
		ASLRBypass: 0.25,
		WXBypass:   0.5,
		Seed:       42,
	}
}

// Target is one registered victim: a guest's surface, its NIC on the
// fabric, and the host it shares with co-located guests.
type Target struct {
	name    string
	surface Surface
	node    *fabric.Node
	hostKey string

	compromised   bool
	compromisedAt simclock.Time
	cause         string
	detected      bool
	quarantinedAt simclock.Time // -1 = never
	gone          bool          // deregistered: repaved or retired
	canaryMisses  int

	// lateral posts this target's next lateral wave; built at its one
	// compromise, so the wave loop reschedules without allocating.
	lateral simclock.Func
}

// Compromised reports whether the campaign owned this target.
func (t *Target) Compromised() bool { return t.compromised }

// CompromisedAt returns the compromise instant (undefined unless
// Compromised).
func (t *Target) CompromisedAt() simclock.Time { return t.compromisedAt }

// Cause names how the target fell: "probe", "lateral" or
// "kml-escalation".
func (t *Target) Cause() string { return t.cause }

// Stats is the campaign-side ledger of one run.
type Stats struct {
	Attempts      int // exploit attempts launched (probe + lateral landings)
	Deflected     int // attempts that bounced off a gated syscall surface
	Landed        int // attempts that reached attackable code
	PayloadFailed int // landed attempts whose payload never stuck

	Compromised  int // targets owned
	ByProbe      int // ... by a direct campaign probe
	ByLateral    int // ... by lateral movement over the fabric
	ByEscalation int // ... by a KML host escalation
	Escalations  int // KML guests that owned their host

	LateralProbes  int // lateral probes launched onto the wire
	LateralBlocked int // lateral probes the fabric never answered

	Detected      int                 // compromises the canaries caught
	DetectLatency []simclock.Duration // compromise -> detection, per catch
}

// Hooks are the containment plane's ears: OnCompromise fires at every
// target fall (cause as in Target.Cause), OnDetect when the canaries
// catch one. Either may be nil.
type Hooks struct {
	OnCompromise func(t *Target, cause string, now simclock.Time)
	OnDetect     func(t *Target, now simclock.Time)
}

// Plane is one running campaign. Construct with New, arm targets with
// Register, start with Start; the owner's engine drives everything.
type Plane struct {
	cfg Config
	eng *simclock.Engine
	net *fabric.Network // may be nil: targets without NICs are hit directly
	inj *faults.Injector
	rng *faults.Stream

	targets []*Target
	hooks   Hooks

	started bool
	stopped bool

	// The campaign and canary loops post these, built once in New, so a
	// tick reschedules without allocating a method value.
	campaignLoop, canaryLoop simclock.Func

	tr      *telemetry.Tracer
	trTrack string

	// Registry counters (nil handles no-op): the SLO plane's security
	// SLIs sample these rather than re-deriving them from the trace.
	mCompromises *telemetry.Counter
	mDetects     *telemetry.Counter
	mDeflects    *telemetry.Counter

	st Stats
}

// New builds a campaign plane on the owner's engine. net may be nil
// when no target has a NIC; inj nil means no rule ever fires (a quiet
// campaign).
func New(cfg Config, eng *simclock.Engine, net *fabric.Network, inj *faults.Injector) *Plane {
	p := &Plane{
		cfg: cfg,
		eng: eng,
		net: net,
		inj: inj,
		rng: faults.NewStream(cfg.Seed),
	}
	p.campaignLoop = p.campaignTick
	p.canaryLoop = p.canaryTick
	return p
}

// SetHooks wires the containment plane in. Call before Start.
func (p *Plane) SetHooks(h Hooks) { p.hooks = h }

// Observe attaches telemetry: compromise/detect/lateral instants land
// on track's "attack" lane, and the registry (nil = off) gains
// compromise/detect/deflect counters under the same track so metric
// consumers can watch the campaign without parsing the trace. Call
// before Start.
func (p *Plane) Observe(tr *telemetry.Tracer, reg *telemetry.Registry, track string) {
	p.tr = tr
	p.trTrack = track
	p.mCompromises = reg.Counter(track + ".compromises")
	p.mDetects = reg.Counter(track + ".detects")
	p.mDeflects = reg.Counter(track + ".deflects")
}

// Stats returns the campaign ledger so far.
func (p *Plane) Stats() Stats { return p.st }

// Register arms one victim. node may be nil (no wire modeled — lateral
// probes land directly); hostKey groups co-located guests for KML
// escalation.
func (p *Plane) Register(name string, s Surface, node *fabric.Node, hostKey string) *Target {
	t := &Target{name: name, surface: s, node: node, hostKey: hostKey, quarantinedAt: -1}
	p.targets = append(p.targets, t)
	return t
}

// Quarantined marks the instant the containment ladder cut the target's
// egress — the campaign keeps it as a (caged) lateral source until
// Deregister, but dwell accounting ends here.
func (p *Plane) Quarantined(t *Target, now simclock.Time) {
	if t.quarantinedAt < 0 {
		t.quarantinedAt = now
	}
}

// Deregister removes a repaved or retired victim from the campaign: it
// stops being a probe victim, a lateral source, a canary subject and —
// critically, inside the escalation window — a pending host takeover.
func (p *Plane) Deregister(t *Target, now simclock.Time) {
	if t.gone {
		return
	}
	t.gone = true
	if p.tr != nil {
		p.tr.Instant("attack", p.trTrack, "deregister", now, telemetry.A("target", t.name))
	}
}

// Start schedules the campaign and canary loops.
func (p *Plane) Start(now simclock.Time) {
	if p.started {
		return
	}
	p.started = true
	at := simclock.Time(attackEvery)
	if at < now {
		at = now
	}
	p.eng.Post(at, p.campaignLoop)
	p.eng.Post(now.Add(canaryEvery), p.canaryLoop)
}

// Stop halts the campaign at its next event, letting the owner's engine
// drain. In-flight lateral probes resolve but no longer exploit.
func (p *Plane) Stop() { p.stopped = true }

// campaignTick consults the probe site once and reschedules.
func (p *Plane) campaignTick(now simclock.Time) {
	if p.stopped {
		return
	}
	if d := p.inj.Hit(SiteSyscallProbe, now); d.Fire && len(p.cfg.Vectors) > 0 {
		if t := p.pickVictim(); t != nil {
			p.exploit(t, p.vector(d.Param), "probe", now)
		}
	}
	p.eng.Post(now.Add(attackEvery), p.campaignLoop)
}

// vector resolves a rule Param to a syscall name: 1-based index, 0 for
// a seeded draw.
func (p *Plane) vector(param int64) string {
	if param > 0 {
		return p.cfg.Vectors[int(param-1)%len(p.cfg.Vectors)]
	}
	return p.cfg.Vectors[p.rng.Intn(len(p.cfg.Vectors))]
}

// pickVictim draws an un-owned target from the seeded stream; nil when
// every registered target is already compromised or gone.
func (p *Plane) pickVictim() *Target {
	var cands []*Target
	for _, t := range p.targets {
		if !t.gone && !t.compromised {
			cands = append(cands, t)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	return cands[p.rng.Intn(len(cands))]
}

// exploit runs one attempt's gauntlet against t: syscall gating first
// (config-causal — a gated vector bounces before any payload runs),
// then the payload arm, then the victim's priced hardening.
func (p *Plane) exploit(t *Target, syscall, cause string, now simclock.Time) {
	if t.gone || t.compromised {
		return
	}
	p.st.Attempts++
	if !t.surface.exposes(syscall) {
		p.st.Deflected++
		p.mDeflects.Inc()
		if p.tr != nil {
			p.tr.Instant("attack", p.trTrack, "deflect", now,
				telemetry.A("target", t.name), telemetry.A("syscall", syscall))
		}
		return
	}
	p.st.Landed++
	if d := p.inj.Hit(SitePayload, now); !d.Fire {
		return // reconnaissance only: the payload never armed
	}
	// The victim's hardening gauntlet: an info-leak fault voids it all;
	// otherwise each built-in feature takes its own seeded toll.
	if d := p.inj.Hit(SiteHardeningBypass, now); !d.Fire {
		if t.surface.ASLR && p.rng.Float64() >= p.cfg.ASLRBypass {
			p.payloadFailed(t, "aslr", now)
			return
		}
		if t.surface.WX && p.rng.Float64() >= p.cfg.WXBypass {
			p.payloadFailed(t, "wx", now)
			return
		}
	}
	p.compromise(t, cause, now)
}

func (p *Plane) payloadFailed(t *Target, feature string, now simclock.Time) {
	p.st.PayloadFailed++
	if p.tr != nil {
		p.tr.Instant("attack", p.trTrack, "payload-fail", now,
			telemetry.A("target", t.name), telemetry.A("feature", feature))
	}
}

// compromise owns t: ledger, hooks, the KML escalation timer, and the
// first lateral wave.
func (p *Plane) compromise(t *Target, cause string, now simclock.Time) {
	t.compromised = true
	t.compromisedAt = now
	t.cause = cause
	p.st.Compromised++
	switch cause {
	case "probe":
		p.st.ByProbe++
	case "lateral":
		p.st.ByLateral++
	case "kml-escalation":
		p.st.ByEscalation++
	}
	p.mCompromises.Inc()
	if p.tr != nil {
		p.tr.Instant("attack", p.trTrack, "compromise", now,
			telemetry.A("target", t.name), telemetry.A("cause", cause))
	}
	if p.hooks.OnCompromise != nil {
		p.hooks.OnCompromise(t, cause, now)
	}
	if t.surface.KML && !t.gone {
		tt := t
		p.eng.Schedule(now.Add(escalateAfter), func(at simclock.Time) { p.escalate(tt, at) })
	}
	if !t.gone {
		t.lateral = func(at simclock.Time) { p.lateralWave(t, at) }
		p.eng.Post(now.Add(lateralEvery), t.lateral)
	}
}

// escalate is the KML blast radius: the guest was its own monitor, so
// owning it was owning the host — every co-located guest falls at once.
// A repave that deregistered the victim inside the window averted it;
// an egress cut did not, because none of this crosses the wire.
func (p *Plane) escalate(t *Target, now simclock.Time) {
	if p.stopped || t.gone {
		return
	}
	p.st.Escalations++
	if p.tr != nil {
		p.tr.Instant("attack", p.trTrack, "escalate", now,
			telemetry.A("target", t.name), telemetry.A("host", t.hostKey))
	}
	for _, peer := range p.targets {
		if peer == t || peer.gone || peer.compromised || peer.hostKey != t.hostKey {
			continue
		}
		p.compromise(peer, "kml-escalation", now)
	}
}

// lateralWave launches one spread round from a compromised guest: up to
// lateralFanout un-owned peers, each gated by the lateral site, each
// probe a real fabric datagram — an egress cut, a partition or a dead
// peer all block it at the wire.
func (p *Plane) lateralWave(t *Target, now simclock.Time) {
	if p.stopped || t.gone {
		return
	}
	for _, peer := range p.lateralPeers(t) {
		d := p.inj.Hit(SiteLateral, now)
		if !d.Fire {
			continue
		}
		p.st.LateralProbes++
		vec := p.vector(d.Param)
		if t.node == nil || peer.node == nil || p.net == nil {
			p.exploit(peer, vec, "lateral", now)
			continue
		}
		pp := peer
		p.net.Probe(t.node, pp.node, lateralTimeout, func(ok bool, at simclock.Time) {
			if p.stopped {
				return
			}
			if !ok {
				p.st.LateralBlocked++
				if p.tr != nil {
					p.tr.Instant("attack", p.trTrack, "lateral-blocked", at,
						telemetry.A("from", t.name), telemetry.A("to", pp.name))
				}
				return
			}
			p.exploit(pp, vec, "lateral", at)
		})
	}
	p.eng.Post(now.Add(lateralEvery), t.lateral)
}

// lateralPeers picks up to lateralFanout un-owned peers in registration
// order starting after t, wrapping — deterministic, and rotating as the
// pool churns.
func (p *Plane) lateralPeers(t *Target) []*Target {
	start := 0
	for i, x := range p.targets {
		if x == t {
			start = i + 1
			break
		}
	}
	var out []*Target
	n := len(p.targets)
	for k := 0; k < n && len(out) < lateralFanout; k++ {
		peer := p.targets[(start+k)%n]
		if peer == t || peer.gone || peer.compromised {
			continue
		}
		out = append(out, peer)
	}
	return out
}

// canaryTick is the detection sweep: every compromised, undetected
// guest trips one anomaly instant; enough in a row raise OnDetect.
func (p *Plane) canaryTick(now simclock.Time) {
	if p.stopped {
		return
	}
	for _, t := range p.targets {
		if t.gone || !t.compromised || t.detected {
			continue
		}
		t.canaryMisses++
		if p.tr != nil {
			p.tr.Instant("attack", p.trTrack, "anomaly", now, telemetry.A("target", t.name))
		}
		if t.canaryMisses >= canaryFailAfter {
			t.detected = true
			p.st.Detected++
			p.mDetects.Inc()
			p.st.DetectLatency = append(p.st.DetectLatency, now.Sub(t.compromisedAt))
			if p.tr != nil {
				p.tr.Instant("attack", p.trTrack, "detect", now,
					telemetry.A("target", t.name), telemetry.A("cause", t.cause))
			}
			if p.hooks.OnDetect != nil {
				p.hooks.OnDetect(t, now)
			}
		}
	}
	p.eng.Post(now.Add(canaryEvery), p.canaryLoop)
}
