package region

import (
	"strconv"

	"lupine/internal/fabric"
	"lupine/internal/fleet"
	"lupine/internal/simclock"
	"lupine/internal/telemetry"
)

// The global router: the one component that sees every region. It
// spreads arrivals round-robin over regions it believes alive, learns
// about dead ones exclusively through gateway heartbeats crossing the
// inter-region trunks, and on a dispatch failure retries the request
// against a different region — which is surge-routing: the moment a
// region is declared dead its share flows to the survivors, and what
// the survivors cannot absorb their own admission control sheds.

// greq is one global request's journey. It is the fabric.ConnHandler
// of its dispatch in flight; a retry starts only after Failed, so it
// never has two connections open at once.
type greq struct {
	p        *Plane
	id       int
	arrival  simclock.Time
	attempts int
	last     *Region       // region of the dispatch in flight or most recent (avoided on retry)
	sent     simclock.Time // when that dispatch was sent
}

// routeRequest picks a region and dispatches, or sheds when the router
// knows of no live region at all.
func (p *Plane) routeRequest(r *greq, now simclock.Time) {
	reg := p.pickRegion(r)
	if reg == nil {
		p.res.Shed++
		p.resolved++
		if p.tr != nil {
			p.tr.Instant("region", p.trTrack, "shed", now,
				telemetry.A("req", strconv.Itoa(r.id)))
		}
		p.maybeFinish(now)
		return
	}
	p.dispatch(r, reg, now)
}

// pickRegion round-robins over regions the router believes alive,
// skipping the region a retry just failed against when any alternative
// exists.
func (p *Plane) pickRegion(r *greq) *Region {
	live := 0
	for _, reg := range p.regions {
		if !reg.dead {
			live++
		}
	}
	if live == 0 {
		return nil
	}
	reg := p.liveRegion(p.rrNext % live)
	p.rrNext++
	if reg == r.last && live > 1 {
		reg = p.liveRegion(p.rrNext % live)
		p.rrNext++
	}
	return reg
}

// liveRegion returns the i-th region, in order, of those the router
// believes alive.
func (p *Plane) liveRegion(i int) *Region {
	for _, reg := range p.regions {
		if reg.dead {
			continue
		}
		if i == 0 {
			return reg
		}
		i--
	}
	return nil
}

// dispatch opens a connection to the region's gateway across the trunk
// and ties the request's fate to it. A dark gateway refuses the SYN
// (fast failure); a trunk partition eats segments until retransmission
// exhaustion or the response deadline (slow failure); either way the
// router retries the request elsewhere under the global deadline.
func (p *Plane) dispatch(r *greq, reg *Region, now simclock.Time) {
	r.attempts++
	r.last, r.sent = reg, now
	p.router.Dial(reg.gw, r)
}

// Established ships the request once the gateway's handshake completes.
func (r *greq) Established(c *fabric.Conn, now simclock.Time) {
	c.SendRequest(fleet.RequestBytes, respTimeout, now)
}

// Response resolves the request as served by the region it was sent to.
func (r *greq) Response(c *fabric.Conn, now simclock.Time) {
	p := r.p
	p.res.OK++
	p.resolved++
	p.res.Latencies = append(p.res.Latencies, now.Sub(r.arrival))
	if p.tr != nil {
		p.tr.Span("region", p.trTrack, "route", r.sent, now,
			telemetry.A("req", strconv.Itoa(r.id)),
			telemetry.A("region", r.last.name))
	}
	p.maybeFinish(now)
}

// Failed traces the failed attempt and retries the request elsewhere.
func (r *greq) Failed(c *fabric.Conn, err error, now simclock.Time) {
	p := r.p
	if p.tr != nil {
		p.tr.Span("region", p.trTrack, "route-fail", r.sent, now,
			telemetry.A("req", strconv.Itoa(r.id)),
			telemetry.A("region", r.last.name),
			telemetry.A("err", err.Error()))
	}
	p.retry(r, now)
}

// retry re-routes a failed request under the global policy: bounded
// attempts and the per-request deadline. No backoff — the failed
// attempt already cost its timeouts, and the surviving regions are a
// different path, not a congested one.
func (p *Plane) retry(r *greq, now simclock.Time) {
	if r.attempts >= maxAttempts || now.Sub(r.arrival) > deadline {
		p.res.Failed++
		p.resolved++
		p.maybeFinish(now)
		return
	}
	p.routeRequest(r, now)
}

// gatewayPump is a region gateway's accept loop: every pending
// connection is accepted and, once its request lands, injected into the
// cell. Only a served request answers the router; shed and failed
// outcomes stay silent and the router's response deadline resolves them
// — a gateway has no error channel on the wire, exactly like a real L4
// proxy whose upstream died.
func (p *Plane) gatewayPump(r *Region, now simclock.Time) {
	for {
		c := r.lst.Accept(now)
		if c == nil {
			return
		}
		c.WhenRequest(now, gateway{r})
	}
}

// gateway is a region gateway's request continuation, and reply the
// cell's answer on the gateway connection a request came in by. Each
// wraps one pointer, so handing one over allocates nothing.
type (
	gateway struct{ r *Region }
	reply   struct{ c *fabric.Conn }
)

// Request injects the request that just landed into the region's cell.
func (g gateway) Request(c *fabric.Conn, at simclock.Time) {
	g.r.injectSeq++
	g.r.fl.Inject(g.r.injectSeq, at, reply{c})
}

// Resolved answers the router once the cell has served the request.
func (rp reply) Resolved(o fleet.Outcome, at simclock.Time) {
	if o == fleet.OutcomeOK {
		rp.c.Respond(fleet.ResponseBytes, at)
	}
}

// probeTick is the failover detector: one heartbeat to every gateway —
// dead regions included, which is how a healed partition rejoins —
// every probeInterval.
func (p *Plane) probeTick(now simclock.Time) {
	for _, reg := range p.regions {
		p.net.Probe(p.router, reg.gw, probeTimeout, reg.verdict)
	}
	if !p.finished {
		p.eng.Post(now.Add(probeInterval), p.probeLoop)
	}
}

// probeVerdict applies one heartbeat result to the router's view.
func (p *Plane) probeVerdict(reg *Region, ok bool, now simclock.Time) {
	if ok {
		reg.probeOKs++
		reg.probeFails = 0
		if reg.dead && !reg.evacuated && reg.probeOKs >= riseAfter {
			// The region answered long enough: the partition healed.
			reg.dead = false
			reg.deadAt = -1
			p.res.Rejoins++
			if p.tr != nil {
				p.tr.Instant("region", p.trTrack, "rejoin", now,
					telemetry.A("region", reg.name))
			}
		}
		return
	}
	reg.probeFails++
	reg.probeOKs = 0
	if !reg.dead && reg.probeFails >= failAfter {
		p.declareDead(reg, now)
	}
}

// declareDead is the failover: the region leaves the routing set, the
// flight recorder dumps the moments leading up to the verdict, and the
// evacuation dwell starts counting.
func (p *Plane) declareDead(reg *Region, now simclock.Time) {
	reg.dead = true
	reg.deadAt = now
	p.res.Failovers++
	if reg.dark {
		p.res.Detect = append(p.res.Detect, now.Sub(reg.darkAt))
	} else {
		// The region is alive; the trunk lied. If it keeps answering
		// probes it rejoins before the dwell expires.
		p.res.FalseTrips++
	}
	if p.tr != nil {
		p.tr.Instant("region", p.trTrack, "failover", now,
			telemetry.A("region", reg.name))
		p.tr.Trip(p.trTrack, "failover:"+reg.name, now)
	}
	rr := reg
	p.eng.Schedule(now.Add(evacuateAfter), func(t simclock.Time) { p.maybeEvacuate(rr, t) })
}
