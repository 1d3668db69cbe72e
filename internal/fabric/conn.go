package fabric

import (
	"errors"
	"fmt"
	"strconv"

	"lupine/internal/simclock"
	"lupine/internal/telemetry"
)

// Terminal connection errors. The distinction matters to the caller: a
// refused connection is a dead server (failure-detect fast), an overflow
// is backpressure (the load balancer's shed signal), a timeout is a
// partition, a flapping link or a server that died mid-flight.
var (
	ErrRefused  = errors.New("fabric: connection refused (no listener)")
	ErrOverflow = errors.New("fabric: connection refused (SYN backlog full)")
	ErrTimeout  = errors.New("fabric: connection timed out")
)

// ConnHandler is the client side's view of a connection's life: the
// dialer itself, typically the request the connection carries. Each
// method fires at most once; exactly one of Failed or Response fires for
// every dialed connection, which is what lets the fleet account every
// request exactly once.
type ConnHandler interface {
	// Established fires when the SYN-ACK lands: the connection is live
	// (possibly still waiting in the server's accept queue).
	Established(c *Conn, now simclock.Time)
	// Failed fires on any terminal failure: ErrRefused, ErrOverflow, or
	// ErrTimeout (retransmit exhaustion or response timeout).
	Failed(c *Conn, err error, now simclock.Time)
	// Response fires when the server's response payload is delivered.
	Response(c *Conn, now simclock.Time)
}

// RequestHandler is the server side's continuation for an accepted
// connection: Request fires once, when the connection's request payload
// has landed. One handler can serve every connection of a server, so
// arming it allocates nothing.
type RequestHandler interface {
	Request(c *Conn, now simclock.Time)
}

// xmit is one reliably-delivered logical segment: the sender retransmits
// on an RTO clock until the matching ACK (or SYN-ACK/RST) lands, then
// gives up after the configured attempts and fails the connection. Each
// lives in its Conn's slot for its kind and is its own retransmit timer.
type xmit struct {
	conn     *Conn
	kind     segKind
	size     int
	seq      int // fabric-wide identity; 0 until the slot is armed
	attempt  int // retransmissions so far
	max      int
	acked    bool
	response bool
}

// respDeadline is a connection's response deadline, embedded in the
// Conn so arming it allocates nothing.
type respDeadline struct{ c *Conn }

// Fire fails a connection whose response has not landed.
func (d *respDeadline) Fire(now simclock.Time) {
	if c := d.c; !c.closed && !c.respDelivered {
		c.fail(ErrTimeout, now)
	}
}

// Conn is one TCP-like connection between a client node and a server
// listener. The fabric owns the state machine; the fleet owns the
// decisions (when to accept, when to respond).
type Conn struct {
	net    *Network
	id     int
	client *Node
	server *Node
	raddr  Addr

	dialedAt simclock.Time
	closed   bool
	outcome  string // for the telemetry span
	rexmits  int    // retransmissions spent on this connection, both directions

	// client side
	h             ConnHandler
	established   bool
	respDelivered bool
	deadline      respDeadline

	// server side
	srvQueued   bool // sitting in the listener backlog
	srvAccepted bool
	reqArrived  bool
	onRequest   RequestHandler

	// The connection's reliable sends, one slot each: the client's SYN
	// and request payload, the server's response payload.
	syn, req, resp xmit
}

// Dial opens a connection from nd to dst, beginning the handshake now.
// h learns its fate exactly once.
func (nd *Node) Dial(dst *Node, port int, h ConnHandler) *Conn {
	n := nd.net
	n.connSeq++
	c := &Conn{
		net:      n,
		id:       n.connSeq,
		client:   nd,
		server:   dst,
		raddr:    Addr{IP: dst.ip, Port: port},
		dialedAt: n.eng.Now(),
		h:        h,
	}
	c.deadline.c = c
	n.stats.Dialed++
	c.sendReliable(&c.syn, segSYN, ctlBytes, connectRetries, false)
	return c
}

// ID reports the connection's fabric-wide id.
func (c *Conn) ID() int { return c.id }

// Retransmits reports retransmissions spent on this connection so far.
func (c *Conn) Retransmits() int { return c.rexmits }

// sendReliable arms slot x with a reliably-delivered logical segment
// from the side implied by kind/response and sends it. Each slot is
// armed at most once per connection.
func (c *Conn) sendReliable(x *xmit, kind segKind, size, maxRetries int, response bool) {
	if x.seq != 0 {
		panic(fmt.Sprintf("fabric: conn %d: %s xmit armed twice", c.id, kind))
	}
	c.net.connSeq++
	*x = xmit{conn: c, kind: kind, size: size, seq: c.net.connSeq, max: maxRetries, response: response}
	c.push(x, c.net.eng.Now())
}

// push transmits an xmit's segment and arms its retransmission timer.
func (c *Conn) push(x *xmit, now simclock.Time) {
	from, to := c.client, c.server
	if x.kind == segData && x.response {
		from, to = c.server, c.client
	}
	s := c.net.segment(x.kind, from, to, x.size, x.seq)
	s.conn, s.response = c, x.response
	c.net.transmit(s, now)
	rto := c.net.rto(x.attempt)
	c.net.eng.Post(now.Add(rto), x)
}

// Fire is the xmit's retransmit timer: its RTO elapsed. Still un-acked
// means the segment (or its ACK) was lost — retransmit, or give up and
// fail the connection with a timeout.
func (x *xmit) Fire(now simclock.Time) {
	c := x.conn
	if x.acked || c.closed {
		return
	}
	// A response whose client already resolved is abandoned silently.
	if x.response && c.respDelivered {
		return
	}
	if x.attempt >= x.max {
		if x.response {
			return // server gives up; the client's own timeout resolves it
		}
		c.fail(ErrTimeout, now)
		return
	}
	x.attempt++
	c.rexmits++
	c.net.stats.Retransmits++
	if tr := c.net.tr; tr != nil {
		tr.Instant("fabric", c.net.trTrack, "rexmit", now,
			telemetry.A("conn", strconv.Itoa(c.id)),
			telemetry.A("kind", x.kind.String()),
			telemetry.A("attempt", strconv.Itoa(x.attempt)))
	}
	c.push(x, now)
}

// rto is the seeded-jitter exponential backoff schedule.
func (n *Network) rto(attempt int) simclock.Duration {
	d := baseRTO
	for i := 0; i < attempt; i++ {
		d *= rtoFactor
	}
	if n.params.RTOJitter > 0 {
		d += simclock.Duration(n.rng.Intn(int(n.params.RTOJitter)))
	}
	return d
}

// ack marks the xmit carried by seq as delivered.
func (c *Conn) ack(seq int) {
	switch seq {
	case c.syn.seq:
		c.syn.acked = true
	case c.req.seq:
		c.req.acked = true
	case c.resp.seq:
		c.resp.acked = true
	}
}

// clientSYNACK completes the client half of the handshake.
func (c *Conn) clientSYNACK(now simclock.Time) {
	c.syn.acked = true
	if c.closed || c.established {
		return
	}
	c.established = true
	c.net.stats.Established++
	c.h.Established(c, now)
}

// clientRST resolves the dial as refused.
func (c *Conn) clientRST(err error, now simclock.Time) {
	c.syn.acked = true
	if c.closed || c.established {
		return
	}
	c.net.stats.Refused++ // overflow and dead-server RSTs both land here; Overflows counted at the listener
	c.fail(err, now)
}

// SendRequest ships the request payload to the server and arms the
// response deadline: if the response payload has not landed within
// respTimeout the connection fails with ErrTimeout — covering a server
// that died mid-service, a cut return path, or a backlog that never
// drains.
func (c *Conn) SendRequest(size int, respTimeout simclock.Duration, now simclock.Time) {
	if c.closed {
		return
	}
	c.sendReliable(&c.req, segData, size, maxRetransmits, false)
	c.net.eng.Post(now.Add(respTimeout), &c.deadline)
}

// serverRequest lands the request payload at the server: ACK (the server
// is alive to do so) and hand it to whoever accepted the connection.
func (c *Conn) serverRequest(seq int, now simclock.Time) {
	if !c.server.up(now) {
		return // dead VMs don't ACK; the client retransmits into the void
	}
	c.net.control(segACK, c.server, c.client, c, seq, nil, now)
	if c.reqArrived {
		return // retransmitted duplicate
	}
	c.reqArrived = true
	if c.onRequest != nil && c.srvAccepted {
		h := c.onRequest
		c.onRequest = nil
		h.Request(c, now)
	}
}

// WhenRequest arms the server-side continuation for the request payload:
// h fires immediately if it already landed, otherwise when it does. The
// fleet calls this right after Accept.
func (c *Conn) WhenRequest(now simclock.Time, h RequestHandler) {
	if c.reqArrived {
		h.Request(c, now)
		return
	}
	c.onRequest = h
}

// Respond ships the response payload back to the client (reliably, up to
// the retransmission budget — past that the client's response deadline
// is the backstop).
func (c *Conn) Respond(size int, now simclock.Time) {
	if c.closed {
		return
	}
	c.sendReliable(&c.resp, segData, size, maxRetransmits, true)
}

// clientResponse lands the response payload: resolve the connection as
// served and ACK so the server stops retransmitting.
func (c *Conn) clientResponse(seq int, now simclock.Time) {
	c.net.control(segACK, c.client, c.server, c, seq, nil, now)
	if c.closed || c.respDelivered {
		return
	}
	c.respDelivered = true
	c.close("served", now)
	c.h.Response(c, now)
}

// fail resolves the connection as failed, exactly once.
func (c *Conn) fail(err error, now simclock.Time) {
	if c.closed {
		return
	}
	if errors.Is(err, ErrTimeout) {
		c.net.stats.Timeouts++
	}
	c.close(err.Error(), now)
	c.h.Failed(c, err, now)
}

// close seals the state machine and emits the connection's span.
func (c *Conn) close(outcome string, now simclock.Time) {
	c.closed = true
	c.net.stats.Closed++
	c.outcome = outcome
	if tr := c.net.tr; tr != nil {
		tr.Span("fabric", c.net.trTrack, "conn", c.dialedAt, now,
			telemetry.A("conn", strconv.Itoa(c.id)),
			telemetry.A("dst", c.server.name),
			telemetry.A("outcome", outcome),
			telemetry.A("rexmits", strconv.Itoa(c.rexmits)))
	}
}
