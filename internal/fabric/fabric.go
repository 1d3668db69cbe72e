// Package fabric is the deterministic virtual network between VMs: an
// L3/L4 model on the simclock that the fleet front-end dispatches over,
// replacing the abstract "request arrives by function call" wire. It
// models what the paper's deployment story takes for granted — app
// servers as full VMs behind a load balancer — concretely enough to
// lose: CIDR-allocated per-VM addresses on a virtual switch, per-link
// latency/bandwidth, TCP-like connections with a SYN backlog that
// refuses on overflow (the listen(2)/ECONNREFUSED semantics of
// internal/guest/net.go, reproduced at the wire), ACK-clocked
// retransmission with seeded-jitter exponential backoff, and
// connection-level timeouts. A family of fault sites (fabric/partition,
// fabric/loss, fabric/delay, fabric/flap) lets a seeded storm split the
// network asymmetrically, drop or delay individual segments, and flap
// links mid-connection — all replayable bit-for-bit from one seed.
package fabric

import (
	"fmt"

	"lupine/internal/faults"
	"lupine/internal/simclock"
	"lupine/internal/telemetry"
)

// Fault-injection sites owned by the fabric. The rule decides WHEN the
// fault is active (window, probability, nth hit); for partition the
// Param decides WHICH directed traffic it cuts, so one plan can split
// the network asymmetrically.
const (
	// SitePartition blackholes matching segments. Param selects the cut:
	// 0 drops everything in the window; +n drops segments INTO node n
	// (others cannot reach it, its own traffic still flows); -n drops
	// segments OUT OF node n (it answers into the void). Node ids are
	// assigned by AddNode starting at 1. Non-matching segments pass.
	SitePartition = "fabric/partition"
	// SiteLoss drops the segment it fires on; the sender pays a
	// retransmission timeout and tries again.
	SiteLoss = "fabric/loss"
	// SiteDelay adds Param microseconds (default 100) to the segment's
	// propagation latency.
	SiteDelay = "fabric/delay"
	// SiteFlap takes the link between the segment's two endpoints down
	// for Param microseconds (default 500), both directions, dropping the
	// triggering segment too — a flapping cable mid-connection.
	SiteFlap = "fabric/flap"
	// SiteTrunkCut blackholes inter-zone segments on the trunk between
	// two switches. Param selects the directed cut over 1-based zone ids:
	// 0 cuts ALL inter-zone traffic, f*1000+t cuts zone f -> zone t, with
	// f or t == 0 as a wildcard (Param 3 cuts everything INTO zone 3,
	// Param 3000 cuts everything OUT OF zone 3). Same-zone segments never
	// consult this site.
	SiteTrunkCut = "fabric/trunk-cut"
)

func init() {
	faults.RegisterSite(SitePartition, "fabric",
		"segment blackholed by a network partition; Param 0=all, +n=into node n, -n=out of node n (asymmetric)")
	faults.RegisterSite(SiteLoss, "fabric",
		"segment lost on the wire; the sender retransmits with seeded-jitter backoff")
	faults.RegisterSite(SiteDelay, "fabric",
		"segment delayed by Param microseconds of extra propagation latency")
	faults.RegisterSite(SiteFlap, "fabric",
		"the segment's link flaps down for Param microseconds, dropping traffic in both directions")
	faults.RegisterSite(SiteTrunkCut, "fabric",
		"inter-zone segment blackholed on the trunk; Param 0=all, f*1000+t cuts zone f->t (0 wildcards either side)")
}

// SOMAXCONN mirrors internal/guest.SOMAXCONN: the fabric's listener
// backlog obeys the same listen(2) clamping rules as the guest network
// stack it models the wire for (a parity test pins the two constants
// together).
const SOMAXCONN = 128

// ctlBytes is the modeled size of control segments (SYN, SYN-ACK, RST,
// ACK, probes): a headers-only frame.
const ctlBytes = 64

// LinkSpec models one node's access link to the switch.
type LinkSpec struct {
	Latency   simclock.Duration // one-way propagation to the switch
	Bandwidth int64             // egress bytes per virtual second; 0 = infinite
}

// The wire's fixed tuning: production-ish TCP timers scaled to the
// simulation's microsecond world. A lost segment is resent after
// baseRTO * rtoFactor^(attempt-1) + jitter in [0, Params.RTOJitter),
// at most maxRetransmits times for data and connectRetries times for
// SYNs; exhaustion fails the connection with ErrTimeout.
const (
	cidr = "10.0.0.0/16" // address block for AddNode allocations

	baseRTO        = 200 * simclock.Microsecond
	rtoFactor      = 2
	maxRetransmits = 4
	connectRetries = 3
)

// Params tunes a Network. All durations are virtual.
type Params struct {
	DefaultLink LinkSpec          // access link used when AddNode gets a zero spec
	RTOJitter   simclock.Duration // seeded jitter added per retransmission backoff step

	// DataDropSite and ProbeDropSite, when non-empty, are extra fault
	// sites consulted for data and probe segments respectively — the
	// fleet plugs its legacy fleet/dispatch-drop and fleet/probe-drop
	// sites in here so existing storm plans keep their meaning on the
	// real wire.
	DataDropSite  string
	ProbeDropSite string

	// Seed drives retransmission jitter (independent of the injector's
	// fire stream).
	Seed uint64
}

// DefaultParams is a 10 Gbps / 5 µs-per-link fabric with 50 µs of
// retransmission jitter.
func DefaultParams() Params {
	const us = simclock.Microsecond
	return Params{
		DefaultLink: LinkSpec{Latency: 5 * us, Bandwidth: 1250 * 1000 * 1000},
		RTOJitter:   50 * us,
		Seed:        1,
	}
}

// Stats is the fabric's wire accounting.
type Stats struct {
	Segments    int // transmissions attempted (retransmits included)
	Delivered   int // segments that reached their destination
	Dropped     int // segments lost to faults or down links
	Retransmits int // segments re-sent after a presumed loss
	Dialed      int // connections opened by Dial
	Closed      int // connections that reached a terminal state
	Established int // connections that completed the handshake
	Refused     int // connections RST by the server: no live listener, or a full SYN backlog
	Overflows   int // SYNs RST at the listener because the SYN backlog was full
	Timeouts    int // connections failed by retransmit exhaustion or response timeout
	ProbesSent  int
	ProbesOK    int

	// Multi-switch accounting: segments that crossed an inter-zone trunk,
	// and the subset the trunk-cut site blackholed.
	TrunkSegments int
	TrunkCuts     int
}

// Network is one virtual switch plus every NIC attached to it.
type Network struct {
	params Params
	eng    *simclock.Engine
	inj    *faults.Injector
	rng    *faults.Stream
	subnet *Subnet
	nodes  []*Node

	// Flapped links, keyed by sorted id pair, and the latest instant any
	// of them heals: past that watermark no link is down, so transmit
	// reads the map only before it.
	linkDownUntil map[[2]int]simclock.Time
	linkHealAt    simclock.Time

	// Multi-switch topology: every node lives in a zone (one virtual
	// switch per zone; zone "" is the default single-switch world), and
	// inter-zone traffic crosses a trunk link with its own latency,
	// bandwidth serialization, and the trunk-cut fault site.
	zoneIDs map[string]int // 1-based ids in registration order
	// zoneTrunks holds every directed zone pair's trunk at
	// from*zoneStride+to, zoneStride being one more than the zones it
	// covers; a pair SetTrunk never priced is a zero-cost cable.
	zoneTrunks []trunk
	zoneStride int

	// armed records which of the network's fault sites the plan has a
	// rule for, asked once in New: a Hit on any other site draws and
	// counts nothing, so transmit skips it.
	armed               armedSites
	dataDrop, probeDrop extraSite

	free       []*segment // delivered or dropped segments, cleared for reuse
	freeProbes []*probe   // timed-out probe records, cleared for reuse

	connSeq  int
	probeSeq int
	stats    Stats

	tr      *telemetry.Tracer
	trTrack string
}

// New builds a network on the engine its owner runs, so wire events
// interleave deterministically with the owner's dispatch, probe and
// control events. inj may be nil (a clean wire).
func New(params Params, eng *simclock.Engine, inj *faults.Injector) *Network {
	subnet, err := ParseCIDR(cidr)
	if err != nil {
		panic(err) // cidr is a well-formed constant
	}
	return &Network{
		params: params,
		eng:    eng,
		inj:    inj,
		armed: armedSites{
			partition: inj.Arms(SitePartition),
			flap:      inj.Arms(SiteFlap),
			loss:      inj.Arms(SiteLoss),
			delay:     inj.Arms(SiteDelay),
			trunkCut:  inj.Arms(SiteTrunkCut),
		},
		dataDrop:  armExtra(inj, params.DataDropSite),
		probeDrop: armExtra(inj, params.ProbeDropSite),
		rng:       faults.NewStream(params.Seed ^ 0xFAB51C),
		subnet:    subnet,
	}
}

// armedSites flags the fabric's own fault sites the plan arms.
type armedSites struct {
	partition, flap, loss, delay, trunkCut bool
}

// extraSite is one of the owner's extra drop sites (Params.DataDropSite,
// ProbeDropSite) with the drop reason traces show for it. The zero value
// is a site the plan does not arm.
type extraSite struct {
	name, reason string
}

func armExtra(inj *faults.Injector, site string) extraSite {
	if !inj.Arms(site) {
		return extraSite{}
	}
	return extraSite{name: site, reason: "site:" + site}
}

// zoneID interns a zone name, assigning 1-based ids in registration
// order — the id space SiteTrunkCut params address. Zone "" (the default
// single-switch world) is id 0 and never crosses a trunk.
func (n *Network) zoneID(zone string) int {
	if zone == "" {
		return 0
	}
	if id, ok := n.zoneIDs[zone]; ok {
		return id
	}
	if n.zoneIDs == nil {
		n.zoneIDs = make(map[string]int)
	}
	id := len(n.zoneIDs) + 1
	n.zoneIDs[zone] = id
	return id
}

// trunk is one direction of an inter-zone trunk: the pair's link spec
// (the same both ways) and this direction's egress serialization horizon.
type trunk struct {
	spec      LinkSpec
	busyUntil simclock.Time
}

// trunkDir returns the directed trunk from zone a to zone b. A zone
// registered since the table was last built rebuilds it, in one
// allocation, for every zone registered so far.
func (n *Network) trunkDir(a, b int) *trunk {
	if n.zoneStride <= len(n.zoneIDs) {
		stride := len(n.zoneIDs) + 1
		t := make([]trunk, stride*stride)
		for i := 0; i < n.zoneStride; i++ {
			copy(t[i*stride:], n.zoneTrunks[i*n.zoneStride:(i+1)*n.zoneStride])
		}
		n.zoneTrunks, n.zoneStride = t, stride
	}
	return &n.zoneTrunks[a*n.zoneStride+b]
}

// SetTrunk installs the trunk link crossed by segments between zones a
// and b (symmetric spec; egress serialization is per direction). Zones
// are registered on first use, so SetTrunk can run before any AddNodeZone
// and still pin the zone-id order.
func (n *Network) SetTrunk(a, b string, spec LinkSpec) {
	ai, bi := n.zoneID(a), n.zoneID(b)
	if ai == 0 || bi == 0 || ai == bi {
		panic(fmt.Sprintf("fabric: bad trunk %q<->%q", a, b))
	}
	n.trunkDir(ai, bi).spec = spec
	n.trunkDir(bi, ai).spec = spec
}

// Observe attaches the telemetry plane: a span per connection, instant
// events per retransmission and per dropped segment — the pre-trip wire
// history flight recordings need. Nil-safe; a fabric without telemetry
// pays nothing on the segment path.
func (n *Network) Observe(tr *telemetry.Tracer, track string) {
	n.tr = tr
	n.trTrack = track
}

// Stats returns the wire accounting so far.
func (n *Network) Stats() Stats { return n.stats }

// Node is one NIC on the switch: a VM, or the front-end itself.
type Node struct {
	net  *Network
	id   int // 1-based; SitePartition params address this
	name string
	ip   IP
	link LinkSpec
	zone int // zone id; 0 = the default zone (no trunks crossed)

	// alive is the ground-truth liveness gate: a dead VM neither answers
	// SYNs nor ACKs data. Nil means always up.
	alive func(now simclock.Time) bool

	// egressCut blackholes every segment this NIC sends — switch-port
	// isolation, the quarantine a containment plane applies so a
	// compromised guest's lateral probes die at the first hop. Ingress
	// still flows: the victim hears the world but cannot answer it.
	egressCut bool

	busyUntil simclock.Time // egress serialization: when the access link frees

	listeners map[int]*Listener
}

// SetEgressCut isolates (or restores) the node's switch port: while
// cut, everything it sends drops at the first hop with reason
// "egress-cut". Deliberate containment, not a fault site — the
// injector's streams never see it.
func (nd *Node) SetEgressCut(cut bool) { nd.egressCut = cut }

// AddNode attaches a NIC, allocating the next address in the block.
// A zero link spec inherits the network default. Node ids count from 1
// in attachment order — the id space SitePartition params address.
func (n *Network) AddNode(name string, link LinkSpec) (*Node, error) {
	return n.AddNodeZone(name, "", link)
}

// AddNodeZone is AddNode onto a named zone's switch: traffic between
// nodes of different zones crosses the inter-zone trunk (SetTrunk) and
// the trunk-cut fault site. Zone "" is the default switch.
func (n *Network) AddNodeZone(name, zone string, link LinkSpec) (*Node, error) {
	ip, err := n.subnet.Alloc()
	if err != nil {
		return nil, err
	}
	if link.Latency == 0 && link.Bandwidth == 0 {
		link = n.params.DefaultLink
	}
	nd := &Node{
		net:       n,
		id:        len(n.nodes) + 1,
		name:      name,
		ip:        ip,
		link:      link,
		zone:      n.zoneID(zone),
		listeners: make(map[int]*Listener),
	}
	n.nodes = append(n.nodes, nd)
	return nd, nil
}

// SetAlive installs the ground-truth liveness gate.
func (nd *Node) SetAlive(fn func(now simclock.Time) bool) { nd.alive = fn }

func (nd *Node) up(now simclock.Time) bool { return nd.alive == nil || nd.alive(now) }

// Listener is a bound, listening L4 endpoint with a SYN backlog.
// Completed handshakes wait here until the owner Accepts them; a SYN
// arriving at a full backlog is refused with a RST — the same
// cap-and-refuse semantics as guest/net.go's ListenBacklog path, which
// is exactly the fleet's shed signal.
type Listener struct {
	node    *Node
	port    int
	cap     int
	backlog []*Conn // accept queue; entries before head were popped
	head    int

	// OnPending, when set, fires every time a connection lands in the
	// backlog — the owner's cue to try an Accept.
	OnPending func(now simclock.Time)
}

// Listen binds a listener on port with the given backlog cap, applying
// the listen(2) clamping rules (below 1 raised to 1, above SOMAXCONN
// clamped down). Re-binding a bound port is a programming error.
func (nd *Node) Listen(port, backlog int) *Listener {
	if _, dup := nd.listeners[port]; dup {
		panic(fmt.Sprintf("fabric: node %s: duplicate listener on port %d", nd.name, port))
	}
	if backlog < 1 {
		backlog = 1
	}
	if backlog > SOMAXCONN {
		backlog = SOMAXCONN
	}
	l := &Listener{node: nd, port: port, cap: backlog}
	nd.listeners[port] = l
	return l
}

// pending counts live (non-closed) connections waiting in the backlog.
func (l *Listener) pending() int {
	n := 0
	for _, c := range l.backlog[l.head:] {
		if !c.closed {
			n++
		}
	}
	return n
}

// enqueue appends c to the accept queue, sliding the unaccepted tail
// down over popped entries before the array would have to grow.
func (l *Listener) enqueue(c *Conn) {
	if l.head > 0 && len(l.backlog) == cap(l.backlog) {
		n := copy(l.backlog, l.backlog[l.head:])
		clear(l.backlog[n:])
		l.backlog = l.backlog[:n]
		l.head = 0
	}
	l.backlog = append(l.backlog, c)
}

// Pending reports how many connections are waiting to be accepted.
func (l *Listener) Pending() int { return l.pending() }

// Accept pops the oldest live pending connection, or nil. Connections
// whose client already gave up (timed out) are discarded in passing,
// like a dead entry in an accept queue.
func (l *Listener) Accept(now simclock.Time) *Conn {
	for l.head < len(l.backlog) {
		c := l.backlog[l.head]
		l.backlog[l.head] = nil
		l.head++
		if c.closed {
			continue
		}
		c.srvAccepted = true
		return c
	}
	l.backlog, l.head = l.backlog[:0], 0
	return nil
}

// --- segment engine ---

type segKind int

const (
	segSYN segKind = iota
	segSYNACK
	segRST
	segData // request or response payload
	segACK
	segProbe
	segProbeReply
)

func (k segKind) String() string {
	switch k {
	case segSYN:
		return "syn"
	case segSYNACK:
		return "syn-ack"
	case segRST:
		return "rst"
	case segData:
		return "data"
	case segACK:
		return "ack"
	case segProbe:
		return "probe"
	case segProbeReply:
		return "probe-reply"
	}
	return "?"
}

// segment is one frame in flight. Senders take it from the network's
// free list and fill it in place; it is its own delivery event, and
// goes back to the list once delivered or dropped.
type segment struct {
	kind     segKind
	from, to *Node
	size     int
	conn     *Conn  // nil for probes
	probe    *probe // for probes and replies: the record a reply resolves
	seq      int    // xmit identity carried (SYN/data) or acked (ACK); the probe's id for probes and replies
	rstErr   error  // for segRST: why
	response bool   // for segData: server->client payload
}

// Fire delivers the segment at its destination, then returns it to the
// free list.
func (s *segment) Fire(now simclock.Time) {
	n := s.from.net
	n.deliver(s, now)
	n.recycle(s)
}

// segment takes a cleared segment from the free list, allocating only
// when the list is empty, and fills in the fields every frame carries;
// the caller sets the rest in place.
func (n *Network) segment(kind segKind, from, to *Node, size, seq int) *segment {
	var s *segment
	if k := len(n.free); k > 0 {
		s = n.free[k-1]
		n.free = n.free[:k-1]
	} else {
		s = new(segment)
	}
	s.kind, s.from, s.to, s.size, s.seq = kind, from, to, size, seq
	return s
}

// control sends a control frame (SYN-ACK, RST or ACK) for connection c.
func (n *Network) control(kind segKind, from, to *Node, c *Conn, seq int, rstErr error, now simclock.Time) {
	s := n.segment(kind, from, to, ctlBytes, seq)
	s.conn, s.rstErr = c, rstErr
	n.transmit(s, now)
}

func (n *Network) recycle(s *segment) {
	*s = segment{}
	n.free = append(n.free, s)
}

func pairKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// transmit pushes one segment onto the wire: fault gauntlet, egress
// serialization, propagation, then delivery. Drops are silent to the
// sender — recovery is the retransmission machinery's job, exactly like
// the real thing. A dropped segment goes straight back to the free list.
func (n *Network) transmit(s *segment, now simclock.Time) {
	n.stats.Segments++
	// Deliberate isolation first: a quarantined port's segments never
	// reach the fault gauntlet, so arming wire sites does not perturb
	// the injector streams a contained backend would have drawn.
	if s.from.egressCut {
		n.drop(s, "egress-cut", now)
		return
	}
	// Fault gauntlet, in a fixed order so runs replay. A segment dies on
	// the first match; later sites never observe it.
	if now < n.linkHealAt && now < n.linkDownUntil[pairKey(s.from.id, s.to.id)] {
		n.drop(s, "link-down", now)
		return
	}
	if s.from.zone != s.to.zone {
		// Inter-zone traffic crosses the trunk and its fault site.
		// Same-zone segments never reach this branch, so single-zone
		// topologies draw exactly the injector stream they always did.
		n.stats.TrunkSegments++
		if d := n.hit(n.armed.trunkCut, SiteTrunkCut, now); d.Fire && trunkCuts(d.Param, s) {
			n.stats.TrunkCuts++
			n.drop(s, "trunk-cut", now)
			return
		}
	}
	if d := n.hit(n.armed.partition, SitePartition, now); d.Fire && partitionCuts(d.Param, s) {
		n.drop(s, "partition", now)
		return
	}
	if d := n.hit(n.armed.flap, SiteFlap, now); d.Fire {
		us := d.Param
		if us <= 0 {
			us = 500
		}
		heal := now.Add(simclock.Duration(us) * simclock.Microsecond)
		if n.linkDownUntil == nil {
			n.linkDownUntil = make(map[[2]int]simclock.Time)
		}
		n.linkDownUntil[pairKey(s.from.id, s.to.id)] = heal
		n.linkHealAt = max(n.linkHealAt, heal)
		n.drop(s, "flap", now)
		return
	}
	if d := n.hit(n.armed.loss, SiteLoss, now); d.Fire {
		n.drop(s, "loss", now)
		return
	}
	if x := n.extraDropSite(s); x.name != "" && n.inj.Hit(x.name, now).Fire {
		n.drop(s, x.reason, now)
		return
	}
	var extra simclock.Duration
	if d := n.hit(n.armed.delay, SiteDelay, now); d.Fire {
		us := d.Param
		if us <= 0 {
			us = 100
		}
		extra = simclock.Duration(us) * simclock.Microsecond
	}
	// Egress serialization on the sender's access link, then propagation
	// over both links. FIFO per egress port keeps the order deterministic.
	depart := max(now, s.from.busyUntil)
	if bw := s.from.link.Bandwidth; bw > 0 {
		depart = depart.Add(simclock.Duration(int64(s.size) * int64(simclock.Second) / bw))
	}
	s.from.busyUntil = depart
	hop := s.from.link.Latency + s.to.link.Latency + extra
	if s.from.zone != s.to.zone {
		// Second serialization stage on the inter-zone trunk, directed
		// per zone pair, then the trunk's own propagation delay. An
		// unconfigured trunk is a zero-cost patch cable.
		t := n.trunkDir(s.from.zone, s.to.zone)
		depart = max(depart, t.busyUntil)
		if bw := t.spec.Bandwidth; bw > 0 {
			depart = depart.Add(simclock.Duration(int64(s.size) * int64(simclock.Second) / bw))
		}
		t.busyUntil = depart
		hop += t.spec.Latency
	}
	n.eng.Post(depart.Add(hop), s)
}

// hit consults a fault site the plan arms; an unarmed site never fires.
func (n *Network) hit(armed bool, site string, now simclock.Time) faults.Decision {
	if !armed {
		return faults.Decision{}
	}
	return n.inj.Hit(site, now)
}

// trunkCuts decides whether a trunk-cut payload blackholes this
// inter-zone segment: 0 cuts all trunks; f*1000+t cuts the directed
// zone pair f->t, with 0 on either side acting as a wildcard.
func trunkCuts(param int64, s *segment) bool {
	if param == 0 {
		return true
	}
	f, t := int(param/1000), int(param%1000)
	if f != 0 && f != s.from.zone {
		return false
	}
	if t != 0 && t != s.to.zone {
		return false
	}
	return true
}

// partitionCuts decides whether a partition payload cuts this segment:
// 0 cuts everything, +n cuts traffic into node n, -n cuts traffic out of
// node n.
func partitionCuts(param int64, s *segment) bool {
	switch {
	case param == 0:
		return true
	case param > 0:
		return s.to.id == int(param)
	default:
		return s.from.id == int(-param)
	}
}

// extraDropSite is the owner's extra drop site for the segment's kind;
// the zero extraSite when there is none or the plan does not arm it.
func (n *Network) extraDropSite(s *segment) extraSite {
	switch s.kind {
	case segData:
		return n.dataDrop
	case segProbe, segProbeReply:
		return n.probeDrop
	}
	return extraSite{}
}

func (n *Network) drop(s *segment, reason string, now simclock.Time) {
	n.stats.Dropped++
	if n.tr != nil {
		n.tr.Instant("fabric", n.trTrack, "wire:drop", now,
			telemetry.A("kind", s.kind.String()),
			telemetry.A("from", s.from.name),
			telemetry.A("to", s.to.name),
			telemetry.A("reason", reason))
	}
	n.recycle(s)
}

// deliver lands a segment at its destination NIC.
func (n *Network) deliver(s *segment, now simclock.Time) {
	n.stats.Delivered++
	switch s.kind {
	case segSYN:
		n.deliverSYN(s, now)
	case segSYNACK:
		s.conn.clientSYNACK(now)
	case segRST:
		s.conn.clientRST(s.rstErr, now)
	case segData:
		if s.response {
			s.conn.clientResponse(s.seq, now)
		} else {
			s.conn.serverRequest(s.seq, now)
		}
	case segACK:
		s.conn.ack(s.seq)
	case segProbe:
		n.deliverProbe(s, now)
	case segProbeReply:
		n.probeReturned(s.probe, s.seq, now)
	}
}

// deliverSYN is the server half of the handshake: liveness gate, then
// the SYN-backlog handoff — queue and SYN-ACK, or refuse with RST when
// the backlog is at cap (ECONNREFUSED at the wire).
func (n *Network) deliverSYN(s *segment, now simclock.Time) {
	c := s.conn
	if c.closed {
		return // client already gave up
	}
	if !s.to.up(now) {
		n.control(segRST, s.to, s.from, c, s.seq, ErrRefused, now)
		return
	}
	if c.srvQueued || c.srvAccepted {
		// Duplicate SYN (lost SYN-ACK): re-answer idempotently.
		n.control(segSYNACK, s.to, s.from, c, s.seq, nil, now)
		return
	}
	l := s.to.listeners[c.raddr.Port]
	if l == nil {
		n.control(segRST, s.to, s.from, c, s.seq, ErrRefused, now)
		return
	}
	if l.pending() >= l.cap {
		n.stats.Overflows++
		n.control(segRST, s.to, s.from, c, s.seq, ErrOverflow, now)
		return
	}
	c.srvQueued = true
	l.enqueue(c)
	n.control(segSYNACK, s.to, s.from, c, s.seq, nil, now)
	if l.OnPending != nil {
		l.OnPending(now)
	}
}

// --- probes ---

// probe is one heartbeat in flight, and its own timeout event. The
// timeout always fires, so it returns the record to the network's free
// list; a reply carries the probe's id, and one that lands after the
// timeout finds another id on the record and resolves nothing.
type probe struct {
	n    *Network
	id   int
	done bool
	cb   func(ok bool, now simclock.Time)
}

// Fire is the probe's timeout: unless a reply landed in time, the
// verdict is a failure. Either way the record goes back for reuse.
func (pr *probe) Fire(at simclock.Time) {
	if !pr.done {
		pr.done = true
		pr.cb(false, at)
	}
	n := pr.n
	*pr = probe{}
	n.freeProbes = append(n.freeProbes, pr)
}

// Probe sends one heartbeat datagram from -> to and reports the verdict
// exactly once: true when the reply lands before timeout, false
// otherwise. Probes model UDP heartbeats: no retransmission — a lost
// probe IS a failed probe, which is what makes one-sided partitions
// visible to the health checker as timeouts. The probe record is its
// own timeout event and comes from the network's free list, so a caller
// that builds cb once per target allocates nothing per probe.
func (n *Network) Probe(from, to *Node, timeout simclock.Duration, cb func(ok bool, now simclock.Time)) {
	n.probeSeq++
	n.stats.ProbesSent++
	var pr *probe
	if k := len(n.freeProbes); k > 0 {
		pr = n.freeProbes[k-1]
		n.freeProbes = n.freeProbes[:k-1]
	} else {
		pr = new(probe)
	}
	*pr = probe{n: n, id: n.probeSeq, cb: cb}
	now := n.eng.Now()
	s := n.segment(segProbe, from, to, ctlBytes, pr.id)
	s.probe = pr
	n.transmit(s, now)
	n.eng.Post(now.Add(timeout), pr)
}

func (n *Network) deliverProbe(s *segment, now simclock.Time) {
	if !s.to.up(now) {
		return // a dead VM answers nothing
	}
	r := n.segment(segProbeReply, s.to, s.from, ctlBytes, s.seq)
	r.probe = s.probe
	n.transmit(r, now)
}

// probeReturned resolves the probe a reply carries, unless its record
// already timed out (and may now serve a later probe).
func (n *Network) probeReturned(pr *probe, id int, now simclock.Time) {
	if pr.id != id || pr.done {
		return
	}
	pr.done = true
	n.stats.ProbesOK++
	pr.cb(true, now)
}
