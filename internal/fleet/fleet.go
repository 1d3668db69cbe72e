// Package fleet is the resilience layer between clients and a pool of
// supervised unikernel VMs: a deterministic, virtual-time front-end that
// load-balances request traffic across backends whose ground truth is a
// supervised service timeline (internal/vmm). Since the fabric refactor
// every byte between the balancer and a backend crosses
// internal/fabric's virtual wire: dispatches are TCP-like connections
// with SYN backlogs and retransmission, health probes are heartbeat
// datagrams that a partition can eat, and the shed path is the
// backend's own listener backlog overflowing — so breakers, retries and
// shed accounting are measured against a network that can actually lose
// a packet. All of it runs on one simclock.Engine with faults injected
// through internal/faults, so a fixed seed replays bit-for-bit. A
// standalone fleet (New) owns a fresh engine and fabric; an attached
// cell (NewAttached) shares its owner's — the machinery is the same.
package fleet

import (
	"errors"
	"fmt"
	"strconv"

	"lupine/internal/fabric"
	"lupine/internal/faults"
	"lupine/internal/metrics"
	"lupine/internal/simclock"
	"lupine/internal/telemetry"
)

// Fleet-owned fault-injection sites: the front-end's own wire can fail.
// Both are wired into the fabric as extra per-segment drop sites, so
// plans written against them now lose real segments on the virtual wire.
const (
	// SiteProbeDrop loses a health-probe datagram (or its reply) in
	// flight; the checker's timeout counts a false-negative failure
	// against the backend.
	SiteProbeDrop = "fleet/probe-drop"
	// SiteDispatchDrop loses a request or response payload segment
	// between the balancer and an otherwise healthy backend; the sender
	// retransmits and may time the connection out.
	SiteDispatchDrop = "fleet/dispatch-drop"
)

func init() {
	faults.RegisterSite(SiteProbeDrop, "fleet",
		"a health probe datagram is lost on the fabric; the backend is charged a probe failure")
	faults.RegisterSite(SiteDispatchDrop, "fleet",
		"a dispatched payload segment is lost on the fabric; the sender retransmits, then times out")
}

// NetConfig tunes the virtual wire the fleet runs on. The wire itself
// (addresses, links, retransmission) is fabric.DefaultParams.
type NetConfig struct {
	ResponseTimeout simclock.Duration // request-to-response deadline on a connection
}

// Config tunes the front-end. All durations are virtual.
type Config struct {
	// Traffic: Requests arrivals starting at TrafficStart, Interarrival
	// apart, each jittered by a seeded draw in [0, ArrivalJitter).
	// TrafficStart models a pool that finishes provisioning before the
	// balancer advertises it: without it, cold-boot latency would be
	// double-counted as unavailability.
	Requests      int
	TrafficStart  simclock.Time
	Interarrival  simclock.Duration
	ArrivalJitter simclock.Duration

	// ServiceTime is the cost of one request on a live backend, before
	// the seeded serviceJitter.
	ServiceTime simclock.Duration

	// Policy selects how the balancer spreads connections:
	// PolicyRR (default) round-robin, PolicyLeast least-loaded,
	// PolicyHash consistent-hash connection affinity over HashClients
	// synthetic client keys.
	Policy      string
	HashClients int

	// ProbeFailAfter consecutive heartbeat misses mark a backend down.
	ProbeFailAfter int

	Breaker BreakerConfig

	// Net tunes the fabric under the pool.
	Net NetConfig

	// Seed drives arrival and service jitter and the fabric's
	// retransmission jitter (independent streams).
	Seed uint64
}

// The front-end's fixed tuning. All durations are virtual.
const (
	// serviceJitter is the seeded spread added to every ServiceTime.
	serviceJitter = 100 * simclock.Microsecond

	// BackendSlots is how many requests one backend serves at once;
	// beyond that, connections wait in its listener's SYN backlog of
	// depth queueDepth (clamped by the fabric's listen(2) rules) and
	// overflow is refused at the wire — the shed path IS the backlog
	// overflowing.
	BackendSlots = 4
	queueDepth   = 32

	// Retry policy for failed dispatches. Retries back off exponentially
	// (retryBackoff, retryFactor) bounded by maxRetries, the per-request
	// deadline, and the fleet-wide retry budget: a token bucket holding
	// at most retryBurst tokens, refilled by retryBudget per completed
	// request, so a storm sheds load instead of amplifying it.
	deadline     = 10 * simclock.Millisecond
	maxRetries   = 3
	retryBackoff = 500 * simclock.Microsecond
	retryFactor  = 2
	retryBudget  = 0.1
	retryBurst   = 20.0

	// Heartbeat health checking: every probeInterval each in-rotation
	// backend is probed over the fabric with a probeTimeout verdict
	// deadline; Config.ProbeFailAfter consecutive misses mark it down,
	// probeRiseAfter consecutive successes bring it back.
	probeInterval  = 1 * simclock.Millisecond
	probeTimeout   = 200 * simclock.Microsecond
	probeRiseAfter = 2

	// RequestBytes and ResponseBytes are the payload sizes of one
	// dispatched request and its response.
	RequestBytes  = 1500
	ResponseBytes = 8192
)

// Load-balancing policies.
const (
	PolicyRR    = "rr"    // round-robin (the default)
	PolicyLeast = "least" // fewest outstanding connections
	PolicyHash  = "hash"  // consistent-hash connection affinity
)

// DefaultConfig returns the tuning the fleetchaos experiment uses: a
// pool comfortably over-provisioned when healthy, so every unavailability
// the table reports is storm-caused, not capacity-caused.
func DefaultConfig() Config {
	const us = simclock.Microsecond
	const ms = simclock.Millisecond
	return Config{
		Requests:      2000,
		Interarrival:  50 * us,
		ArrivalJitter: 20 * us,
		ServiceTime:   250 * us,

		Policy: PolicyRR,

		ProbeFailAfter: 2,

		Breaker: BreakerConfig{FailThreshold: 5},

		Net: NetConfig{ResponseTimeout: 8 * ms},

		Seed: 42,
	}
}

// Result is what one fleet run reports.
type Result struct {
	Total        int // requests that arrived
	OK           int // served within deadline
	Shed         int // refused: backlog overflow at the wire, or no routable backend
	Failed       int // dispatched but never served
	DeadlineMiss int // subset of Failed that ran out of deadline
	Retries      int // re-dispatches performed
	BudgetDenied int // retries refused by the fleet-wide budget
	BreakerOpens int // open transitions across all breakers
	FalseTrips   int // breaker opens while the backend was actually alive (the wire lied)
	Quarantines  int // deliberate containment opens (Quarantine calls that landed; never FalseTrips)
	Retransmits  int // fabric segments re-sent after a presumed loss
	Events       int // virtual-time events executed (the engine's pop count)
	Restarts     int // supervisor restarts summed over initial backends
	MinActive    int // fewest structurally active backends at any instant
	End          simclock.Time

	// Autoscaler accounting (zero unless the fleet was built with
	// NewAutoscaled).
	ScaleUps   int           // scale-up decisions taken
	ScaleDowns int           // scale-down drains started
	Restores   int           // backends launched via snapshot restore
	ColdBoots  int           // backends launched via cold boot (fallbacks included)
	PeakActive int           // most structurally active backends at any instant
	FullAt     simclock.Time // first instant the pool reached Max (-1 = never)

	// Memory-pressure accounting (zero unless a MemoryPlane was
	// attached). MemSheds counts arrivals refused by the pressure
	// ladder's shed rung; they are also counted in Shed.
	MemSheds int
	Mem      MemStats

	// Latencies holds arrival-to-completion times of served requests, in
	// completion order.
	Latencies []simclock.Duration
}

// Availability is the fraction of offered requests that were served.
func (r *Result) Availability() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.OK) / float64(r.Total)
}

// ShedRate is the fraction of offered requests refused at admission.
func (r *Result) ShedRate() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Shed) / float64(r.Total)
}

// Percentile returns the p-th percentile served latency.
func (r *Result) Percentile(p float64) simclock.Duration {
	return metrics.Percentile(r.Latencies, p)
}

// request is one client request's journey through the front-end. It
// is the fabric.ConnHandler of its dispatch in flight; a retry starts
// only after Failed, so it never has two connections open at once.
type request struct {
	f        *Fleet
	id       int
	arrival  simclock.Time
	attempts int // dispatches so far

	// The dispatch in flight: its backend and when it was sent.
	b    *Backend
	sent simclock.Time

	// done, set by Inject in attached mode, learns the resolution.
	done Resolver
}

// Fire re-admits the request when its retry backoff has elapsed.
func (r *request) Fire(now simclock.Time) { r.f.admitRequest(r, now) }

// Fleet is the running front-end. Construct with New and drive with
// Run, or attach it to an owner's engine with NewAttached.
type Fleet struct {
	cfg      Config
	eng      *simclock.Engine
	backends []*Backend

	// standalone fleets generate their own arrivals in Run and stop the
	// heartbeat once every request has resolved and the upgrade plan has
	// finished; attached cells are fed by Inject and beat until the owner
	// calls Stop.
	standalone bool
	zone       string
	stopped    bool

	// The self-rescheduling loops, each built once when it starts so a
	// tick posts the next without allocating.
	probeLoop, autoscaleLoop, memLoop simclock.Func

	net    *fabric.Network
	lbNode *fabric.Node

	arrivalRng *faults.Stream
	serviceRng *faults.Stream

	retryTokens float64
	rrNext      int
	ring        []ringPoint // sorted vnode ring, maintained incrementally

	plan     *UpgradePlan
	upgraded bool // plan finished (or absent)

	scaler       *AutoscalePolicy
	scaleSeq     int // launches requested so far
	scalePending int // launches provisioning, not yet admitted
	upReadyAt    simclock.Time
	downReadyAt  simclock.Time

	mem      MemoryPlane // nil: no memory-pressure plane attached
	memEvery simclock.Duration

	// Telemetry (attached via Observe; nil = disabled, zero cost).
	tr            *telemetry.Tracer
	trTrack       string
	netTrack      string // the fabric's lane (trTrack + "/net")
	mOK           *telemetry.Counter
	mShed         *telemetry.Counter
	mFailed       *telemetry.Counter
	mRetries      *telemetry.Counter
	mBreakerOpens *telemetry.Counter
	hLatency      *telemetry.Histogram

	resolved int
	res      Result
}

// New assembles a fleet over the initial backends. plan may be nil (no
// rolling upgrade) and inj may be nil (no faults anywhere on the wire).
func New(cfg Config, backends []*Backend, plan *UpgradePlan, inj *faults.Injector) *Fleet {
	return NewAutoscaled(cfg, backends, nil, plan, inj)
}

// NewAutoscaled is New plus a demand-driven autoscaler: the pool grows
// and shrinks between the policy's Min and Max, provisioning new
// backends through the policy (snapshot restore or cold boot). scaler
// may be nil (fixed pool).
func NewAutoscaled(cfg Config, backends []*Backend, scaler *AutoscalePolicy, plan *UpgradePlan, inj *faults.Injector) *Fleet {
	if cfg.ArrivalJitter > cfg.Interarrival {
		// Run queues arrival i+1 when arrival i lands; a wider jitter
		// could draw it earlier.
		panic(fmt.Sprintf("fleet: ArrivalJitter %v exceeds Interarrival %v, so arrivals could land out of order",
			cfg.ArrivalJitter, cfg.Interarrival))
	}
	eng := simclock.NewEngine()
	f := NewAttached(cfg, eng, fabric.New(FabricParams(cfg), eng, inj), "")
	f.standalone = true
	f.plan = plan
	f.upgraded = plan == nil
	f.scaler = scaler
	for _, b := range backends {
		f.admit(b, 0)
		f.res.Restarts += b.Timeline.Stats.Restarts
	}
	f.res.MinActive = f.activeCount()
	f.notePool(0)
	return f
}

// FabricParams is the fabric's default wire with the legacy fleet drop
// sites wired in as extra per-segment faults and the retransmission
// jitter seeded from the fleet's seed. Attached-mode owners (the region
// control plane) build the shared fabric with it, so it carries exactly
// the tuning a standalone fleet's does.
func FabricParams(cfg Config) fabric.Params {
	p := fabric.DefaultParams()
	p.DataDropSite = SiteDispatchDrop
	p.ProbeDropSite = SiteProbeDrop
	p.Seed = cfg.Seed ^ 0xFA_B0_0C
	return p
}

// Net exposes the fabric under the pool for tables and tests.
func (f *Fleet) Net() *fabric.Network { return f.net }

// Clock exposes the clock of the engine the fleet runs on, so observers
// (the SLO plane's rolling-window samplers) can register aligned-interval
// callbacks that fire as virtual time advances. An attached cell returns
// its owner's clock.
func (f *Fleet) Clock() *simclock.Clock { return f.eng.Clock() }

// Run plays the whole workload of a standalone fleet and returns the
// result. Deterministic: the only inputs are the config, the backend
// timelines, the upgrade plan, and the injector's plan and seed.
func (f *Fleet) Run() Result {
	if !f.standalone {
		panic("fleet: Run on an attached fleet; the owning engine drives it")
	}
	// Arrivals, jittered from the seeded stream as each one is queued.
	base := f.cfg.TrafficStart
	f.eng.Arrivals(f.cfg.Requests, func(int) simclock.Time {
		at := base.Add(f.jitter(f.arrivalRng, f.cfg.ArrivalJitter))
		base = base.Add(f.cfg.Interarrival)
		return at
	}, func(i int, now simclock.Time) {
		f.admitRequest(&request{f: f, id: i, arrival: now}, now)
	})
	f.res.Total = f.cfg.Requests
	f.Start(0)
	if f.plan != nil {
		f.eng.Schedule(f.plan.Start, func(now simclock.Time) { f.startUpgrade(now) })
	}
	if f.scaler != nil {
		f.autoscaleLoop = f.autoscaleTick
		f.eng.Post(simclock.Time(f.scaler.Evaluate), f.autoscaleLoop)
	}
	if f.mem != nil {
		f.memLoop = f.memTick
		f.eng.Post(simclock.Time(f.memEvery), f.memLoop)
	}
	f.res.Events = f.eng.Run()
	f.res.End = f.eng.Now()
	f.res.Retransmits = f.net.Stats().Retransmits
	if f.mem != nil {
		f.res.Mem = f.mem.Finish(f.res.End)
	}
	return f.res
}

func (f *Fleet) jitter(rng *faults.Stream, span simclock.Duration) simclock.Duration {
	if span <= 0 {
		return 0
	}
	return simclock.Duration(rng.Intn(int(span)))
}

// admit places a backend in rotation at time now: a NIC on the fabric
// with a bound listener, a fresh breaker, and an optimistic heartbeat
// verdict.
func (f *Fleet) admit(b *Backend, now simclock.Time) {
	b.start = now
	b.admitted = true
	b.healthy = true
	b.breaker = NewBreaker(f.cfg.Breaker)

	bb := b
	b.node = f.net.AddNodeZone(b.Name, f.zone)
	b.node.SetAlive(func(t simclock.Time) bool { return bb.aliveAt(t) })
	b.lst = b.node.Listen(queueDepth)
	b.lst.OnPending = func(t simclock.Time) { f.serverPump(bb, t) }
	for i := range b.slots {
		b.slots[i] = slot{f: f, b: b}
	}
	b.verdict = func(ok bool, t simclock.Time) { f.probeVerdict(bb, ok, t) }

	f.backends = append(f.backends, b)
	f.ringInsert(b)
	f.observeBackend(b, now)
}

func (f *Fleet) activeCount() int {
	n := 0
	for _, b := range f.backends {
		if b.active() {
			n++
		}
	}
	return n
}

func (f *Fleet) noteActive() {
	if n := f.activeCount(); n < f.res.MinActive {
		f.res.MinActive = n
	}
}

// roomFor reports whether the balancer would open another connection to
// b: its own outstanding-connection count must fit the backend's serving
// slots plus its listener backlog. This is the balancer's bookkeeping
// view; the fabric's backlog overflow is the ground-truth backstop when
// that view is stale (retransmitted SYNs, partitions).
func (f *Fleet) roomFor(b *Backend) bool {
	return b.inflight < BackendSlots+queueDepth
}

// admitRequest is the admission-control gate: refuse outright while the
// memory-pressure ladder sheds, otherwise route by policy and dispatch
// over the fabric; with no routable backend the request is shed.
func (f *Fleet) admitRequest(r *request, now simclock.Time) {
	if f.mem != nil && r.attempts == 0 && f.mem.ShedAdmission(now) {
		f.res.MemSheds++
		f.shed(r, "mem-pressure", now)
		return
	}
	b := f.pick(r, now)
	if b == nil {
		f.shed(r, "no-backend", now)
		return
	}
	f.dispatch(r, b, now)
}

// shed resolves a request refused without dispatch.
func (f *Fleet) shed(r *request, reason string, now simclock.Time) {
	f.res.Shed++
	f.resolved++
	f.mShed.Inc()
	if f.tr != nil {
		f.tr.Instant("fleet", f.trTrack, "shed", now,
			telemetry.A("req", strconv.Itoa(r.id)),
			telemetry.A("reason", reason))
	}
	if r.done != nil {
		r.done.Resolved(OutcomeShed, now)
	}
}

// failRequest resolves a request that was dispatched but never served.
func (f *Fleet) failRequest(r *request, now simclock.Time) {
	f.res.Failed++
	f.resolved++
	f.mFailed.Inc()
	if r.done != nil {
		r.done.Resolved(OutcomeFailed, now)
	}
}

// dispatch opens a connection to b over the fabric and wires the
// request's fate to the connection's. Ground truth decides at the wire:
// a dead backend refuses the SYN, a full backlog RSTs with overflow (the
// shed path), a partitioned or flapping link times the connection out
// after retransmission exhaustion.
func (f *Fleet) dispatch(r *request, b *Backend, now simclock.Time) {
	r.attempts++
	b.inflight++
	r.b, r.sent = b, now
	f.lbNode.Dial(b.node, r)
}

// Established ships the request once the handshake completes.
func (r *request) Established(c *fabric.Conn, now simclock.Time) {
	c.SendRequest(RequestBytes, r.f.cfg.Net.ResponseTimeout, now)
}

// Response resolves the request as served by its backend.
func (r *request) Response(c *fabric.Conn, now simclock.Time) {
	f, b := r.f, r.b
	b.inflight--
	b.served++
	b.breaker.Success(now)
	f.res.OK++
	f.resolved++
	// Served traffic earns retry budget back, capped at the burst.
	f.retryTokens += retryBudget
	if f.retryTokens > retryBurst {
		f.retryTokens = retryBurst
	}
	lat := now.Sub(r.arrival)
	f.res.Latencies = append(f.res.Latencies, lat)
	f.mOK.Inc()
	f.hLatency.Observe(lat)
	if r.done != nil {
		r.done.Resolved(OutcomeOK, now)
	}
	if f.tr != nil {
		f.tr.Span("fleet", b.lane, "dispatch", r.sent, now,
			telemetry.A("req", strconv.Itoa(r.id)),
			telemetry.A("conn", strconv.Itoa(c.ID())))
	}
	f.maybeDrained(b, now)
}

// Failed sheds the request on backlog overflow, and otherwise charges
// the backend's breaker and retries.
func (r *request) Failed(c *fabric.Conn, err error, now simclock.Time) {
	f, b := r.f, r.b
	b.inflight--
	if errors.Is(err, fabric.ErrOverflow) {
		// The backend's backlog refused us: backpressure from a live
		// server. Shed, and never charge the breaker for it.
		f.shed(r, "backlog-overflow", now)
		f.maybeDrained(b, now)
		return
	}
	b.failed++
	if f.tr != nil {
		f.tr.Span("fleet", b.lane, "dispatch-fail", r.sent, now,
			telemetry.A("req", strconv.Itoa(r.id)),
			telemetry.A("conn", strconv.Itoa(c.ID())),
			telemetry.A("err", err.Error()))
	}
	f.breakerFailure(b, now)
	f.maybeDrained(b, now)
	f.retry(r, now)
}

// breakerFailure charges b's breaker with a data-plane failure and
// accounts open transitions, flagging false trips — opens while the
// backend was actually alive, meaning the wire (not the VM) failed.
func (f *Fleet) breakerFailure(b *Backend, now simclock.Time) {
	before := b.breaker.State()
	b.breaker.Failure(now)
	if b.breaker.State() == BreakerOpen {
		f.res.BreakerOpens++
		if before != BreakerOpen && b.aliveAt(now) {
			f.falseTrip(b, now)
		}
	}
}

// falseTrip counts a breaker open against b while it was actually
// alive: the wire, not the VM, failed.
func (f *Fleet) falseTrip(b *Backend, now simclock.Time) {
	f.res.FalseTrips++
	if f.tr != nil {
		f.tr.Instant("fleet", b.lane, "breaker:false-trip", now)
		f.tr.Trip(b.lane, "false-trip", now)
		// Dump the wire's own ring too: the retransmission storm that
		// talked the breaker into this is the post-mortem.
		f.tr.Trip(f.netTrack, "false-trip:"+b.Name, now)
	}
}

// serverPump is the backend's accept loop: while the VM is up and has a
// free serving slot, accept the oldest pending connection into it; the
// slot schedules the service once the request lands. A VM that died
// with connections queued simply stops pumping; the clients' own
// timeouts resolve them.
func (f *Fleet) serverPump(b *Backend, now simclock.Time) {
	if !b.aliveAt(now) {
		return
	}
	for b.serving < BackendSlots {
		c := b.lst.Accept(now)
		if c == nil {
			return
		}
		b.serving++
		for i := range b.slots {
			if s := &b.slots[i]; s.c == nil {
				s.c = c
				c.WhenRequest(now, s)
				break
			}
		}
	}
}

// slot is one of a backend's serving slots. It holds one accepted
// connection from accept to response, and is both that connection's
// request continuation and its service-completion event.
type slot struct {
	f *Fleet
	b *Backend
	c *fabric.Conn // the connection in service; nil when the slot is free
}

// Request schedules the service of the request that just landed.
func (s *slot) Request(c *fabric.Conn, at simclock.Time) {
	f := s.f
	f.eng.Post(at.Add(f.cfg.ServiceTime+f.jitter(f.serviceRng, serviceJitter)), s)
}

// Fire ends the service and frees the slot. A VM that died mid-service
// answers nothing; the client's response deadline is how the front-end
// finds out.
func (s *slot) Fire(t simclock.Time) {
	b, c := s.b, s.c
	s.c = nil
	b.serving--
	if b.aliveAt(t) {
		c.Respond(ResponseBytes, t)
	}
	s.f.serverPump(b, t)
}

// retry re-dispatches a failed request under the retry policy: bounded
// attempts, exponential backoff under the per-request deadline, and the
// fleet-wide token budget.
func (f *Fleet) retry(r *request, now simclock.Time) {
	if r.attempts > maxRetries {
		f.failRequest(r, now)
		return
	}
	backoff := retryBackoff
	for i := 1; i < r.attempts; i++ {
		backoff *= retryFactor
	}
	retryAt := now.Add(backoff)
	if retryAt.Sub(r.arrival) > deadline {
		f.res.DeadlineMiss++
		if f.tr != nil {
			f.tr.Instant("fleet", f.trTrack, "deadline-miss", now,
				telemetry.A("req", strconv.Itoa(r.id)))
		}
		f.failRequest(r, now)
		return
	}
	if f.retryTokens < 1 {
		f.res.BudgetDenied++
		if f.tr != nil {
			f.tr.Instant("fleet", f.trTrack, "budget-denied", now,
				telemetry.A("req", strconv.Itoa(r.id)))
		}
		f.failRequest(r, now)
		return
	}
	f.retryTokens--
	f.res.Retries++
	f.mRetries.Inc()
	if f.tr != nil {
		f.tr.Span("fleet", f.trTrack, "retry-backoff", now, retryAt,
			telemetry.A("req", strconv.Itoa(r.id)),
			telemetry.A("attempt", strconv.Itoa(r.attempts)))
	}
	f.eng.Post(retryAt, r)
}

// probeTick is the heartbeat: launch a probe datagram over the fabric at
// every in-rotation backend, then reschedule itself while work remains.
// Verdicts land asynchronously — a reply beats the timeout or it
// doesn't — which is exactly what lets a one-sided partition produce
// false-negative probe failures.
func (f *Fleet) probeTick(now simclock.Time) {
	for _, b := range f.backends {
		if !b.admitted || b.retired {
			continue
		}
		f.net.Probe(f.lbNode, b.node, probeTimeout, b.verdict)
	}
	// A standalone fleet's heartbeat ends with its own workload, an
	// attached cell's when the owner calls Stop.
	if f.stopped || (f.standalone && f.resolved >= f.cfg.Requests && f.upgraded) {
		return
	}
	f.eng.Post(now.Add(probeInterval), f.probeLoop)
}

// probeVerdict applies one heartbeat result to the health view and the
// breaker.
func (f *Fleet) probeVerdict(b *Backend, ok bool, now simclock.Time) {
	if b.retired {
		return
	}
	if ok {
		b.probeOKs++
		b.probeFails = 0
		if !b.healthy && b.probeOKs >= probeRiseAfter {
			b.healthy = true
			if f.tr != nil {
				f.tr.Instant("fleet", b.lane, "health:up", now)
			}
		}
		b.breaker.ProbeSuccess(now)
		// A recovered VM may have connections parked in its backlog.
		f.serverPump(b, now)
		return
	}
	b.probeFails++
	b.probeOKs = 0
	if b.healthy && b.probeFails >= f.cfg.ProbeFailAfter {
		b.healthy = false
		if f.tr != nil {
			f.tr.Instant("fleet", b.lane, "health:down", now)
		}
	}
	before := b.breaker.State()
	b.breaker.ProbeFailure(now)
	if b.breaker.State() == BreakerOpen && before != BreakerOpen && b.aliveAt(now) {
		f.falseTrip(b, now)
	}
}

// Backends exposes the pool (initial + surge + replacements) for tables
// and tests.
func (f *Fleet) Backends() []*Backend { return f.backends }

// String summarizes the last result (Fleet is not a Stringer for tables;
// experiments render their own).
func (f *Fleet) String() string {
	return fmt.Sprintf("fleet(%d backends, %d/%d served)", len(f.backends), f.res.OK, f.res.Total)
}
