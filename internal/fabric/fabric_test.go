package fabric

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"lupine/internal/faults"
	"lupine/internal/guest"
	"lupine/internal/simclock"
)

const ms = simclock.Millisecond

// TestSOMAXCONNParity pins the fabric's backlog cap to the guest network
// stack's: the fabric models the wire in front of guest/net.go listeners,
// so the two listen(2) clamps must agree.
func TestSOMAXCONNParity(t *testing.T) {
	if SOMAXCONN != guest.SOMAXCONN {
		t.Fatalf("fabric.SOMAXCONN = %d, guest.SOMAXCONN = %d; the clamps must match", SOMAXCONN, guest.SOMAXCONN)
	}
}

// newTestNet builds a one-client, one-server network on a fresh engine.
// The server auto-accepts and echoes a response unless
// noServe is set.
func newTestNet(t *testing.T, inj *faults.Injector, params Params) (*simclock.Engine, *Network, *Node, *Node, *Listener) {
	t.Helper()
	sched := simclock.NewEngine()
	net := New(params, sched, inj)
	client := net.AddNodeZone("client", "")
	server := net.AddNodeZone("server", "")
	lst := server.Listen(16)
	return sched, net, client, server, lst
}

type connResult struct {
	established bool
	served      bool
	err         error
}

// callbacks adapts per-test funcs to ConnHandler; a nil func ignores
// its event.
type callbacks struct {
	established func(c *Conn, now simclock.Time)
	failed      func(c *Conn, err error, now simclock.Time)
	response    func(c *Conn, now simclock.Time)
}

func (cb callbacks) Established(c *Conn, now simclock.Time) {
	if cb.established != nil {
		cb.established(c, now)
	}
}

func (cb callbacks) Failed(c *Conn, err error, now simclock.Time) {
	if cb.failed != nil {
		cb.failed(c, err, now)
	}
}

func (cb callbacks) Response(c *Conn, now simclock.Time) {
	if cb.response != nil {
		cb.response(c, now)
	}
}

// responder answers every request it is armed for with size bytes.
type responder struct{ size int }

func (r *responder) Request(c *Conn, now simclock.Time) { c.Respond(r.size, now) }

// serveAll accepts every connection that lands on lst and answers its
// request with size bytes.
func serveAll(lst *Listener, size int) {
	h := &responder{size}
	lst.OnPending = func(now simclock.Time) {
		for c := lst.Accept(now); c != nil; c = lst.Accept(now) {
			c.WhenRequest(now, h)
		}
	}
}

func dialAndSend(sched *simclock.Engine, client, server *Node, reqBytes, respBytes int, respTimeout simclock.Duration, serve bool, lst *Listener) *connResult {
	res := &connResult{}
	if serve {
		serveAll(lst, respBytes)
	}
	client.Dial(server, callbacks{
		established: func(c *Conn, now simclock.Time) {
			res.established = true
			c.SendRequest(reqBytes, respTimeout, now)
		},
		failed:   func(c *Conn, err error, now simclock.Time) { res.err = err },
		response: func(c *Conn, now simclock.Time) { res.served = true },
	})
	return res
}

func TestCleanWireRequestResponse(t *testing.T) {
	sched, net, client, server, lst := newTestNet(t, nil, DefaultParams())
	res := dialAndSend(sched, client, server, 1024, 4096, 10*ms, true, lst)
	sched.RunUntil(simclock.Time(100 * ms))
	if !res.established || !res.served || res.err != nil {
		t.Fatalf("clean wire: established=%v served=%v err=%v", res.established, res.served, res.err)
	}
	st := net.Stats()
	if st.Established != 1 || st.Retransmits != 0 || st.Dropped != 0 {
		t.Fatalf("clean wire stats: %+v", st)
	}
	if st.Delivered != st.Segments {
		t.Fatalf("clean wire should deliver every segment: %+v", st)
	}
}

// A steady-state request/response round trip on a clean wire allocates
// the Conn and nothing else: segments come off the network's free list,
// retransmit timers and the response deadline live in the Conn, the
// dialer is its own handler and the server's request continuation is
// one value for every connection.
func TestRoundTripAllocations(t *testing.T) {
	sched, net, client, server, lst := newTestNet(t, nil, DefaultParams())
	serveAll(lst, 4096)
	served := 0
	h := &callbacks{
		established: func(c *Conn, now simclock.Time) { c.SendRequest(1024, 10*ms, now) },
		response:    func(c *Conn, now simclock.Time) { served++ },
	}
	roundTrip := func() {
		client.Dial(server, h)
		sched.Run()
	}
	roundTrip() // grow the engine queue and fill the segment free list
	allocs := testing.AllocsPerRun(100, roundTrip)
	if st := net.Stats(); served != 102 || st.Dialed != st.Closed || st.Retransmits != 0 {
		t.Fatalf("served %d of 102 round trips: %+v", served, st)
	}
	if allocs > 1 {
		t.Fatalf("%v allocations per round trip, want at most 1 (the Conn)", allocs)
	}
}

// Each reliable send has one slot per connection; arming it twice is a
// bug in the caller, and panics rather than losing the first send's
// retransmit state.
func TestSecondRequestOnOneConnPanics(t *testing.T) {
	sched, _, client, server, _ := newTestNet(t, nil, DefaultParams())
	client.Dial(server, callbacks{
		established: func(c *Conn, now simclock.Time) {
			c.SendRequest(1024, 10*ms, now)
			c.SendRequest(1024, 10*ms, now)
		},
	})
	defer func() {
		if recover() == nil {
			t.Fatal("a second SendRequest on one connection did not panic")
		}
	}()
	sched.Run()
}

func TestNoListenerRefused(t *testing.T) {
	sched, net, client, _, _ := newTestNet(t, nil, DefaultParams())
	idle := net.AddNodeZone("idle", "") // never listens
	res := &connResult{}
	client.Dial(idle, callbacks{
		failed: func(c *Conn, err error, now simclock.Time) { res.err = err },
	})
	sched.RunUntil(simclock.Time(100 * ms))
	if !errors.Is(res.err, ErrRefused) {
		t.Fatalf("dial to a node with no listener: err=%v, want ErrRefused", res.err)
	}
	if net.Stats().Refused != 1 {
		t.Fatalf("stats: %+v", net.Stats())
	}
}

func TestDeadServerRefused(t *testing.T) {
	sched, _, client, server, _ := newTestNet(t, nil, DefaultParams())
	server.SetAlive(func(now simclock.Time) bool { return false })
	res := &connResult{}
	client.Dial(server, callbacks{
		failed: func(c *Conn, err error, now simclock.Time) { res.err = err },
	})
	sched.RunUntil(simclock.Time(100 * ms))
	if !errors.Is(res.err, ErrRefused) {
		t.Fatalf("dial to dead server: err=%v, want ErrRefused", res.err)
	}
}

// TestBacklogOverflowSheds fills a backlog of exactly cap and checks the
// overflow connection is refused with ErrOverflow — the load balancer's
// shed signal — while the queued ones survive.
func TestBacklogOverflowSheds(t *testing.T) {
	sched := simclock.NewEngine()
	net := New(DefaultParams(), sched, nil)
	client := net.AddNodeZone("client", "")
	server := net.AddNodeZone("server", "")
	lst := server.Listen(2) // cap 2, nobody accepting
	var errs []error
	for i := 0; i < 3; i++ {
		client.Dial(server, callbacks{
			failed: func(c *Conn, err error, now simclock.Time) { errs = append(errs, err) },
		})
	}
	sched.RunUntil(simclock.Time(ms))
	if len(errs) != 1 || !errors.Is(errs[0], ErrOverflow) {
		t.Fatalf("overflow errors = %v, want exactly one ErrOverflow", errs)
	}
	if lst.pending() != 2 {
		t.Fatalf("backlog pending = %d, want 2", lst.pending())
	}
	if net.Stats().Overflows != 1 {
		t.Fatalf("stats: %+v", net.Stats())
	}
}

// TestListenClamp checks the listen(2) clamping rules.
func TestListenClamp(t *testing.T) {
	sched := simclock.NewEngine()
	net := New(DefaultParams(), sched, nil)
	if l := net.AddNodeZone("a", "").Listen(0); l.cap != 1 {
		t.Errorf("backlog 0 clamps to %d, want 1", l.cap)
	}
	if l := net.AddNodeZone("b", "").Listen(100000); l.cap != SOMAXCONN {
		t.Errorf("backlog 100000 clamps to %d, want %d", l.cap, SOMAXCONN)
	}
}

// A node serves one listener: binding a second is a programming error.
func TestSecondListenPanics(t *testing.T) {
	nd := New(DefaultParams(), simclock.NewEngine(), nil).AddNodeZone("n", "")
	nd.Listen(16)
	defer func() {
		if recover() == nil {
			t.Fatal("a second Listen on one node did not panic")
		}
	}()
	nd.Listen(16)
}

// TestLossRetransmitRecovers drops the first data segment; the sender's
// RTO fires, the retransmission lands, and the request completes anyway.
func TestLossRetransmitRecovers(t *testing.T) {
	inj := faults.MustNew(faults.Plan{Seed: 7, Rules: []faults.Rule{
		{Site: SiteLoss, NthHit: 5}, // 5th segment on the wire: the request data
	}})
	sched, net, client, server, lst := newTestNet(t, inj, DefaultParams())
	res := dialAndSend(sched, client, server, 1024, 4096, 50*ms, true, lst)
	sched.RunUntil(simclock.Time(100 * ms))
	if !res.served || res.err != nil {
		t.Fatalf("lossy wire: served=%v err=%v", res.served, res.err)
	}
	st := net.Stats()
	if st.Dropped != 1 || st.Retransmits < 1 {
		t.Fatalf("lossy wire stats: %+v", st)
	}
}

// Sequential round trips on a lossy link: each connection dials when
// the last one resolves, so by the time its response deadline and most
// of its retransmit timers come due they are moot, and the lanes drop
// them. Run still reports every event the engine popped before lanes
// existed, no-op timers included, the clock ends where the last of them
// moved it, and the wire's accounting is the same: all three are pinned
// to their values from an engine that popped every timer.
func TestSequentialRoundTripsOnLossyLink(t *testing.T) {
	inj := faults.MustNew(faults.Plan{Seed: 9, Rules: []faults.Rule{
		{Site: SiteLoss, Prob: 0.4},
	}})
	sched, net, client, server, lst := newTestNet(t, inj, DefaultParams())
	serveAll(lst, 2048)
	left := 200
	h := &callbacks{}
	next := func(*Conn, simclock.Time) {
		if left--; left > 0 {
			client.Dial(server, h)
		}
	}
	h.established = func(c *Conn, now simclock.Time) { c.SendRequest(512, 4*ms, now) }
	h.failed = func(c *Conn, _ error, now simclock.Time) { next(c, now) }
	h.response = next
	client.Dial(server, h)
	if n := sched.Run(); n != 2298 {
		t.Errorf("Run reported %d events, want 2298", n)
	}
	if now := sched.Now(); now != 245376248 {
		t.Errorf("clock ends at %d, want 245376248", now)
	}
	want := Stats{Segments: 1729, Delivered: 1027, Dropped: 702, Retransmits: 537,
		Dialed: 200, Closed: 200, Established: 178, Timeouts: 24}
	if st := net.Stats(); st != want {
		t.Errorf("stats %+v\nwant  %+v", st, want)
	}
}

// TestAsymmetricPartitionTimesOut cuts traffic OUT OF the server (its
// SYN-ACKs vanish) while traffic INTO it still flows: the client
// retransmits its SYN into a one-way street and fails with ErrTimeout —
// the signature one-sided-partition behavior the breaker tests build on.
func TestAsymmetricPartitionTimesOut(t *testing.T) {
	sched := simclock.NewEngine()
	params := DefaultParams()
	inj := faults.MustNew(faults.Plan{Seed: 3, Rules: []faults.Rule{
		{Site: SitePartition, Prob: 1, Param: -2}, // cut segments out of node 2
	}})
	net := New(params, sched, inj)
	client := net.AddNodeZone("client", "") // id 1
	server := net.AddNodeZone("server", "") // id 2
	lst := server.Listen(16)
	// Nobody accepts: the backlog retains what the server heard, so the
	// test can prove the SYN crossed while the SYN-ACK did not.
	res := dialAndSend(sched, client, server, 1024, 4096, 50*ms, false, lst)
	sched.RunUntil(simclock.Time(200 * ms))
	if !errors.Is(res.err, ErrTimeout) {
		t.Fatalf("one-sided partition: err=%v, want ErrTimeout", res.err)
	}
	if res.established {
		t.Fatal("SYN-ACK crossed a partition that should cut it")
	}
	st := net.Stats()
	// The server heard the SYN (traffic in still flows) and queued the
	// connection; only its answers died. The entry is a corpse by now —
	// the client gave up — but it must be THERE.
	if len(lst.backlog) == 0 {
		t.Fatal("server never heard the SYN: partition cut the wrong direction")
	}
	if st.Retransmits != connectRetries {
		t.Fatalf("SYN retransmits = %d, want %d", st.Retransmits, connectRetries)
	}
}

// TestFlapDropsThenHeals fires one flap on the 5th segment (the request
// data): the link goes down, retransmissions during the outage die on
// the floor, and the first retransmission after the heal completes the
// request.
func TestFlapDropsThenHeals(t *testing.T) {
	inj := faults.MustNew(faults.Plan{Seed: 11, Rules: []faults.Rule{
		{Site: SiteFlap, NthHit: 5, Param: 300}, // 300 µs outage
	}})
	sched, net, client, server, lst := newTestNet(t, inj, DefaultParams())
	res := dialAndSend(sched, client, server, 1024, 4096, 50*ms, true, lst)
	sched.RunUntil(simclock.Time(100 * ms))
	if !res.served || res.err != nil {
		t.Fatalf("flapped wire: served=%v err=%v", res.served, res.err)
	}
	st := net.Stats()
	if st.Dropped < 1 || st.Retransmits < 1 {
		t.Fatalf("flap should drop and force retransmission: %+v", st)
	}
}

// TestFlapHealMidRexmitResumesLadder is the mid-retransmission healing
// contract: the link flaps down AFTER the request is in flight, the
// ladder's early rungs die into the downed link, and when the flap heals
// the NEXT rung — not a fresh connection — completes the request. The
// attempt counter must climb monotonically through the outage (resume,
// not restart) and no RST may appear: a flap is a wire fault, not a
// server verdict.
func TestFlapHealMidRexmitResumesLadder(t *testing.T) {
	params := DefaultParams()
	params.RTOJitter = 0 // exact rung times: checks at +200, +400, +800 µs
	// The request data departs at ~20µs (two 10µs handshake hops); the
	// window catches exactly that segment and takes the link down for
	// 900µs — long enough to eat rungs 1 and 2, healed before rung 3.
	inj := faults.MustNew(faults.Plan{Seed: 11, Rules: []faults.Rule{
		{Site: SiteFlap, From: simclock.Time(15 * simclock.Microsecond), To: simclock.Time(25 * simclock.Microsecond), Prob: 1, Param: 900},
	}})
	sched, net, client, server, lst := newTestNet(t, inj, params)
	serveAll(lst, 4096)
	res := &connResult{}
	conn := client.Dial(server, callbacks{
		established: func(c *Conn, now simclock.Time) {
			res.established = true
			c.SendRequest(1024, 50*ms, now)
		},
		failed:   func(c *Conn, err error, now simclock.Time) { res.err = err },
		response: func(c *Conn, now simclock.Time) { res.served = true },
	})
	sched.RunUntil(simclock.Time(100 * ms))
	if !res.established || !res.served || res.err != nil {
		t.Fatalf("mid-rexmit heal: established=%v served=%v err=%v", res.established, res.served, res.err)
	}
	// Exactly three rungs spent: the flap ate the original send, rungs 1
	// and 2 died into the downed link, rung 3 landed after the heal. A
	// restarted ladder (or a redial) could not produce this count on this
	// connection.
	if conn.rexmits != 3 {
		t.Fatalf("rexmit ladder spent %d rungs, want 3 (resume through the outage)", conn.rexmits)
	}
	st := net.Stats()
	if st.Dropped != 3 { // 1 flap + 2 link-down
		t.Fatalf("dropped %d segments, want 3 (flap + two link-down rungs): %+v", st.Dropped, st)
	}
	if st.Refused != 0 || st.Overflows != 0 || st.Timeouts != 0 {
		t.Fatalf("flap heal must not RST or time out the connection: %+v", st)
	}
	if st.Established != 1 {
		t.Fatalf("established %d connections, want 1 — the ladder must resume, not redial: %+v", st.Established, st)
	}
}

// TestFlapOutlastsRexmitLadder is the contrast case: the outage outlives
// the whole retransmission budget, so the connection fails with
// ErrTimeout — retransmit exhaustion, the partition signature — and
// still never an RST.
func TestFlapOutlastsRexmitLadder(t *testing.T) {
	params := DefaultParams()
	params.RTOJitter = 0
	inj := faults.MustNew(faults.Plan{Seed: 11, Rules: []faults.Rule{
		{Site: SiteFlap, From: simclock.Time(15 * simclock.Microsecond), To: simclock.Time(25 * simclock.Microsecond), Prob: 1, Param: 7000},
	}})
	sched, net, client, server, lst := newTestNet(t, inj, params)
	res := dialAndSend(sched, client, server, 1024, 4096, 50*ms, true, lst)
	sched.RunUntil(simclock.Time(100 * ms))
	if res.served {
		t.Fatal("request served through a flap that outlasts the whole ladder")
	}
	if !errors.Is(res.err, ErrTimeout) {
		t.Fatalf("exhausted ladder: err=%v, want ErrTimeout", res.err)
	}
	st := net.Stats()
	if st.Retransmits != maxRetransmits {
		t.Fatalf("spent %d retransmits, want the full budget of %d", st.Retransmits, maxRetransmits)
	}
	if st.Refused != 0 {
		t.Fatalf("a flap is a wire fault, not a server RST: %+v", st)
	}
	if st.Timeouts != 1 {
		t.Fatalf("timeouts = %d, want 1: %+v", st.Timeouts, st)
	}
}

// TestFlapsHealPerLink flaps two links over different windows: x-z for
// 500 µs from 0, then x-y for 100 µs from 50 µs. At 200 µs x-y has healed
// on time although x-z, flapped first, is still down, and x-w, never
// flapped, passes throughout; at 600 µs every link is up.
func TestFlapsHealPerLink(t *testing.T) {
	const us = simclock.Microsecond
	params := DefaultParams()
	params.DefaultLink = LinkSpec{Latency: us} // unmetered: a segment lands 2 µs after it leaves
	inj := faults.MustNew(faults.Plan{Seed: 11, Rules: []faults.Rule{
		{Site: SiteFlap, From: 0, To: simclock.Time(us), Prob: 1, Param: 500},
		{Site: SiteFlap, From: simclock.Time(50 * us), To: simclock.Time(51 * us), Prob: 1, Param: 100},
	}})
	sched := simclock.NewEngine()
	net := New(params, sched, inj)
	x := net.AddNodeZone("x", "")
	arrivals := map[string][]simclock.Time{}
	target := func(name string) *Node {
		nd := net.AddNodeZone(name, "")
		// Record each probe's arrival and stay dark, so no reply muddies the wire.
		nd.SetAlive(func(now simclock.Time) bool { arrivals[name] = append(arrivals[name], now); return false })
		return nd
	}
	y, z, w := target("y"), target("z"), target("w")
	send := func(at simclock.Duration, to ...*Node) {
		sched.Schedule(simclock.Time(at), func(now simclock.Time) {
			for _, nd := range to {
				net.transmit(net.segment(segProbe, x, nd, ctlBytes, 0), now)
			}
		})
	}
	send(0, z)     // flaps x-z until 500 µs
	send(50*us, y) // flaps x-y until 150 µs
	send(200*us, y, z, w)
	send(600*us, y, z, w)
	sched.Run()
	at := func(d simclock.Duration) simclock.Time { return simclock.Time(d + 2*us) }
	want := map[string][]simclock.Time{
		"y": {at(200 * us), at(600 * us)},
		"z": {at(600 * us)},
		"w": {at(200 * us), at(600 * us)},
	}
	if fmt.Sprint(arrivals) != fmt.Sprint(want) {
		t.Fatalf("arrivals = %v, want %v", arrivals, want)
	}
	if st := net.Stats(); st.Dropped != 3 { // two flaps, then x-z at 200 µs
		t.Fatalf("dropped %d segments, want 3: %+v", st.Dropped, st)
	}
}

// TestAcceptSkipsDeadEntries fills a backlog, times the clients out, and
// checks Accept discards the corpses.
func TestAcceptSkipsDeadEntries(t *testing.T) {
	sched := simclock.NewEngine()
	params := DefaultParams()
	net := New(params, sched, nil)
	client := net.AddNodeZone("client", "")
	server := net.AddNodeZone("server", "")
	lst := server.Listen(4)
	var conns []*Conn
	for i := 0; i < 2; i++ {
		conns = append(conns, client.Dial(server, callbacks{}))
	}
	sched.RunUntil(simclock.Time(ms))
	if lst.pending() != 2 {
		t.Fatalf("pending = %d, want 2", lst.pending())
	}
	conns[0].fail(ErrTimeout, sched.Now()) // client 0 gives up
	if lst.pending() != 1 {
		t.Fatalf("pending after client death = %d, want 1", lst.pending())
	}
	got := lst.Accept(sched.Now())
	if got != conns[1] {
		t.Fatalf("Accept returned %v, want the live conn", got)
	}
	if lst.Accept(sched.Now()) != nil {
		t.Fatal("Accept after draining should return nil")
	}
}

// storm runs a many-connection scenario under loss+delay+flap and
// returns a transcript string: same seed must mean byte-identical
// transcripts.
func storm(seed uint64) string {
	inj := faults.MustNew(faults.Plan{Seed: seed, Rules: []faults.Rule{
		{Site: SiteLoss, Prob: 0.2},
		{Site: SiteDelay, Prob: 0.1, Param: 150},
		{Site: SiteFlap, Prob: 0.02, Param: 400},
	}})
	sched := simclock.NewEngine()
	params := DefaultParams()
	params.Seed = seed
	net := New(params, sched, inj)
	client := net.AddNodeZone("client", "")
	server := net.AddNodeZone("server", "")
	lst := server.Listen(8)
	serveAll(lst, 2048)
	var sb strings.Builder
	for i := 0; i < 40; i++ {
		id := i
		launch := simclock.Time(i) * simclock.Time(100*simclock.Microsecond)
		sched.Schedule(launch, func(now simclock.Time) {
			client.Dial(server, callbacks{
				established: func(c *Conn, at simclock.Time) { c.SendRequest(512, 20*ms, at) },
				failed: func(c *Conn, err error, at simclock.Time) {
					fmt.Fprintf(&sb, "%d fail %v @%v\n", id, err, at)
				},
				response: func(c *Conn, at simclock.Time) {
					fmt.Fprintf(&sb, "%d ok rexmit=%d @%v\n", id, c.rexmits, at)
				},
			})
		})
	}
	sched.RunUntil(simclock.Time(500 * ms))
	fmt.Fprintf(&sb, "stats %+v\n", net.Stats())
	return sb.String()
}

func TestStormDeterminism(t *testing.T) {
	a, b := storm(42), storm(42)
	if a != b {
		t.Fatalf("same-seed storms diverged:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
	if c := storm(43); c == a {
		t.Fatal("different seeds produced identical storms: jitter stream not seeded")
	}
	// The storm must actually exercise the machinery it claims to.
	if !strings.Contains(a, "rexmit=") {
		t.Fatalf("storm transcript has no successes:\n%s", a)
	}
}

// TestProbeVerdicts covers the heartbeat datagram: clean reply, dead
// target silence, and a lost probe all resolving exactly once.
func TestProbeVerdicts(t *testing.T) {
	sched := simclock.NewEngine()
	net := New(DefaultParams(), sched, nil)
	lb := net.AddNodeZone("lb", "")
	vm := net.AddNodeZone("vm", "")

	verdicts := 0
	var lastOK bool
	record := func(ok bool, now simclock.Time) { verdicts++; lastOK = ok }

	net.Probe(lb, vm, ms, record)
	sched.RunUntil(simclock.Time(10 * ms))
	if verdicts != 1 || !lastOK {
		t.Fatalf("clean probe: verdicts=%d ok=%v", verdicts, lastOK)
	}

	vm.SetAlive(func(now simclock.Time) bool { return false })
	net.Probe(lb, vm, ms, record)
	sched.RunUntil(simclock.Time(20 * ms))
	if verdicts != 2 || lastOK {
		t.Fatalf("dead-target probe: verdicts=%d ok=%v", verdicts, lastOK)
	}
	st := net.Stats()
	if st.ProbesSent != 2 || st.ProbesOK != 1 {
		t.Fatalf("probe stats: %+v", st)
	}
}

// TestProbeLostIsFailed drops the probe datagram itself: no retransmit,
// the timeout is the verdict — how one-sided partitions become visible
// to health checking.
func TestProbeLostIsFailed(t *testing.T) {
	inj := faults.MustNew(faults.Plan{Seed: 5, Rules: []faults.Rule{
		{Site: SiteLoss, NthHit: 1},
	}})
	sched := simclock.NewEngine()
	net := New(DefaultParams(), sched, inj)
	lb := net.AddNodeZone("lb", "")
	vm := net.AddNodeZone("vm", "")
	verdicts, ok := 0, true
	net.Probe(lb, vm, ms, func(got bool, now simclock.Time) { verdicts++; ok = got })
	sched.RunUntil(simclock.Time(10 * ms))
	if verdicts != 1 || ok {
		t.Fatalf("lost probe: verdicts=%d ok=%v, want one false verdict", verdicts, ok)
	}
}

// TestLateProbeReplyIsIgnored delays probe 1's reply past its timeout.
// Probe 2 then reuses probe 1's record, and probe 1's reply lands while
// probe 2 is still waiting for its own, also delayed, reply: the late
// reply must resolve nothing, so each probe gets exactly one verdict,
// its own.
func TestLateProbeReplyIsIgnored(t *testing.T) {
	const us = simclock.Microsecond
	inj := faults.MustNew(faults.Plan{Seed: 5, Rules: []faults.Rule{
		{Site: SiteDelay, NthHit: 2, Param: 300}, // probe 1's reply lands at ~320 µs
		{Site: SiteDelay, NthHit: 4, Param: 400}, // probe 2's reply lands at ~620 µs
	}})
	sched := simclock.NewEngine()
	net := New(DefaultParams(), sched, inj)
	lb := net.AddNodeZone("lb", "")
	vm := net.AddNodeZone("vm", "")

	type verdict struct {
		ok bool
		at simclock.Time
	}
	var first, second []verdict
	net.Probe(lb, vm, 100*us, func(ok bool, now simclock.Time) { first = append(first, verdict{ok, now}) })
	var reused bool
	sched.Schedule(simclock.Time(200*us), func(now simclock.Time) {
		rec := net.freeProbes[len(net.freeProbes)-1]
		net.Probe(lb, vm, ms, func(ok bool, now simclock.Time) { second = append(second, verdict{ok, now}) })
		reused = rec.id == 2
	})
	sched.Run()
	if !reused {
		t.Fatal("probe 2 did not reuse probe 1's record")
	}
	if len(first) != 1 || first[0] != (verdict{false, simclock.Time(100 * us)}) {
		t.Fatalf("probe 1 verdicts = %v, want one timeout at 100µs", first)
	}
	if len(second) != 1 || !second[0].ok || second[0].at < simclock.Time(600*us) {
		t.Fatalf("probe 2 verdicts = %v, want one success when its own reply lands (~620µs)", second)
	}
	if st := net.Stats(); st.ProbesSent != 2 || st.ProbesOK != 1 {
		t.Fatalf("probe stats: %+v", st)
	}
}

// A steady-state probe allocates nothing, whether its reply lands or it
// times out: the record comes off the network's free list and goes back
// when its timeout fires.
func TestProbeAllocations(t *testing.T) {
	sched := simclock.NewEngine()
	net := New(DefaultParams(), sched, nil)
	lb := net.AddNodeZone("lb", "")
	vm := net.AddNodeZone("vm", "")
	up := true
	vm.SetAlive(func(simclock.Time) bool { return up })
	verdicts := 0
	cb := func(ok bool, now simclock.Time) {
		if ok == up {
			verdicts++
		}
	}
	probe := func() {
		net.Probe(lb, vm, ms, cb)
		sched.Run()
	}
	probe() // grow the engine queue and fill the free lists
	for _, up = range []bool{true, false} {
		if allocs := testing.AllocsPerRun(100, probe); allocs != 0 {
			t.Fatalf("%v allocations per probe (target up=%v), want 0", allocs, up)
		}
	}
	if verdicts != 1+2*101 {
		t.Fatalf("%d right verdicts of %d probes", verdicts, 1+2*101)
	}
}

// TestBandwidthSerializes checks the egress link serializes back-to-back
// segments: the second departs after the first finishes transmitting.
func TestBandwidthSerializes(t *testing.T) {
	sched := simclock.NewEngine()
	params := DefaultParams()
	params.DefaultLink = LinkSpec{Latency: simclock.Microsecond, Bandwidth: 1000 * 1000} // 1 MB/s: 1 ms per KB
	net := New(params, sched, nil)
	a := net.AddNodeZone("a", "")
	b := net.AddNodeZone("b", "")
	// b's liveness gate is consulted once per probe delivery: record the
	// arrival instant and stay dark, so no reply muddies the wire.
	var arrivals []simclock.Time
	b.SetAlive(func(now simclock.Time) bool { arrivals = append(arrivals, now); return false })
	for i := 0; i < 2; i++ {
		net.transmit(net.segment(segProbe, a, b, 1000, 1000+i), sched.Now())
	}
	sched.Run()
	if len(arrivals) != 2 {
		t.Fatalf("probe arrivals = %v, want 2", arrivals)
	}
	gap := arrivals[1].Sub(arrivals[0])
	if gap != simclock.Millisecond {
		t.Fatalf("egress gap = %v, want 1ms (1000 B at 1 MB/s)", gap)
	}
}

// TestTrunkSerializesPerDirection prices one trunk between zones a and b
// at 1 ms per KB over unmetered access links: back-to-back segments from
// a to b queue behind each other on it, a segment from b to a does not
// wait for them, and zone c, which no trunk prices, reaches a over a
// zero-cost cable. SetTrunk runs before any node joins, so a and b keep
// ids 1 and 2 though b's nodes join first.
func TestTrunkSerializesPerDirection(t *testing.T) {
	const us = simclock.Microsecond
	sched := simclock.NewEngine()
	params := DefaultParams()
	params.DefaultLink = LinkSpec{Latency: us}
	net := New(params, sched, nil)
	net.SetTrunk("a", "b", LinkSpec{Latency: 10 * us, Bandwidth: 1000 * 1000})
	arrivals := map[string][]simclock.Time{}
	node := func(name, zone string) *Node {
		nd := net.AddNodeZone(name, zone)
		nd.SetAlive(func(now simclock.Time) bool { arrivals[name] = append(arrivals[name], now); return false })
		return nd
	}
	b1, b2 := node("b1", "b"), node("b2", "b")
	a1, a2 := node("a1", "a"), node("a2", "a")
	c := node("c", "c")
	if a1.zone != 1 || b1.zone != 2 || c.zone != 3 {
		t.Fatalf("zone ids a=%d b=%d c=%d, want 1, 2, 3", a1.zone, b1.zone, c.zone)
	}
	send := func(from, to *Node) {
		net.transmit(net.segment(segProbe, from, to, 1000, 0), sched.Now())
	}
	send(a1, b1) // on the a->b trunk from 0 to 1 ms
	send(c, a2)  // zone c joined after the trunk table was built
	send(a2, b2) // queues behind a1's segment: on the trunk from 1 to 2 ms
	send(b1, a1) // the b->a direction is free at once
	sched.Run()
	hop := 12 * us // two access links and the trunk
	want := map[string][]simclock.Time{
		"b1": {simclock.Time(ms + hop)},
		"b2": {simclock.Time(2*ms + hop)},
		"a1": {simclock.Time(ms + hop)},
		"a2": {simclock.Time(2 * us)},
	}
	if fmt.Sprint(arrivals) != fmt.Sprint(want) {
		t.Fatalf("arrivals = %v, want %v", arrivals, want)
	}
	if st := net.Stats(); st.TrunkSegments != 4 {
		t.Fatalf("trunk segments = %d, want 4: %+v", st.TrunkSegments, st)
	}
}

// BenchmarkInterZoneRoundTrip is one dial, request and response between
// two zones over a priced trunk per op: every segment of the exchange
// takes the fabric's inter-zone path.
func BenchmarkInterZoneRoundTrip(b *testing.B) {
	sched := simclock.NewEngine()
	net := New(DefaultParams(), sched, nil)
	client := net.AddNodeZone("client", "east")
	server := net.AddNodeZone("server", "west")
	net.SetTrunk("east", "west", LinkSpec{Latency: 50 * simclock.Microsecond, Bandwidth: 1250 * 1000 * 1000})
	serveAll(server.Listen(16), 4096)
	served := 0
	h := &callbacks{
		established: func(c *Conn, now simclock.Time) { c.SendRequest(1024, 10*ms, now) },
		response:    func(c *Conn, now simclock.Time) { served++ },
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		client.Dial(server, h)
		sched.Run()
	}
	if served != b.N {
		b.Fatalf("served %d of %d round trips", served, b.N)
	}
}
