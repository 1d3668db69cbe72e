package guest

import (
	"fmt"

	"lupine/internal/simclock"
)

// Socket domains (values match Linux so error messages carry the real
// address-family numbers). Traffic is loopback only: the guest has a
// virtio-net device but all benchmark clients run on the same machine,
// as in the paper's setup.
const (
	AFUnix   = 1
	AFInet   = 2
	AFInet6  = 10
	AFPacket = 17
)

const (
	SockStream = iota
	SockDgram
)

// socket is a simulated socket endpoint.
type socket struct {
	domain int
	typ    int

	// stream state
	listening  bool
	backlog    []*socket // pending connections, bounded by backlogMax
	backlogMax int       // listen(2) backlog cap; connects beyond it are refused
	acceptQ    waitQueue
	peer       *socket
	in         *pipe // bytes from peer to us

	// dgram state
	dgrams [][]byte // queued datagram payloads
	dgramQ waitQueue
	bound  bool
	addr   sockAddr
	closed bool
}

type sockAddr struct {
	domain int
	port   int    // inet
	path   string // unix
}

func (a sockAddr) String() string {
	if a.domain == AFUnix {
		return "unix:" + a.path
	}
	return fmt.Sprintf("inet:%d", a.port)
}

func newSocket(domain, typ int) *socket {
	return &socket{domain: domain, typ: typ,
		acceptQ: waitQueue{name: "accept"}, dgramQ: waitQueue{name: "dgram"}}
}

// netStack holds the loopback namespace: listeners and bound endpoints.
type netStack struct {
	listeners map[sockAddr]*socket
	dgramEPs  map[sockAddr]*socket
}

func newNetStack() *netStack {
	return &netStack{
		listeners: make(map[sockAddr]*socket),
		dgramEPs:  make(map[sockAddr]*socket),
	}
}

// domainOption maps a socket domain to the config option providing it.
func domainOption(domain int) string {
	switch domain {
	case AFInet:
		return "INET"
	case AFInet6:
		return "IPV6"
	case AFUnix:
		return "UNIX"
	case AFPacket:
		return "PACKET"
	}
	return ""
}

// opCostBase returns the unscaled per-operation cost for the socket's
// transport; callers apply the per-process mitigation scaling.
func (s *socket) opCostBase(c *CostModel) simDur {
	switch {
	case s.domain == AFUnix:
		return c.UnixOp
	case s.typ == SockDgram:
		return c.UDPOp
	default:
		return c.TCPOp
	}
}

// Socket creates a socket, like socket(2). Domain availability is gated
// on the kernel configuration (§3.1.1: "can't create UNIX socket").
func (p *Proc) Socket(domain, typ int) (int, Errno) {
	if e := p.sysEnter("socket"); e != OK {
		return -1, e
	}
	opt := domainOption(domain)
	if opt != "" {
		p.k.trace(p, "socket:"+opt)
	}
	if opt == "" || !p.k.img.Enabled(opt) {
		if domain == AFUnix {
			p.k.consolePrint("can't create UNIX socket\n")
		} else {
			p.k.consolePrint(fmt.Sprintf("socket: address family %d not supported\n", domain))
		}
		return -1, EAFNOSUPPORT
	}
	s := newSocket(domain, typ)
	fd := &FD{refs: 1, kind: fdSocket, sock: s}
	return p.fds.alloc(fd), OK
}

// Bind binds a socket to a port (inet) or path (unix).
func (p *Proc) Bind(fd int, port int, path string) Errno {
	if e := p.sysEnter("bind"); e != OK {
		return e
	}
	s, errno := p.sockFor(fd)
	if errno != OK {
		return errno
	}
	addr := sockAddr{domain: s.domain, port: port, path: path}
	if s.domain == AFInet6 {
		addr.domain = AFInet6
	}
	ns := p.k.net
	if s.typ == SockDgram {
		if _, used := ns.dgramEPs[addr]; used {
			return EADDRINUSE
		}
		ns.dgramEPs[addr] = s
	} else {
		if _, used := ns.listeners[addr]; used {
			return EADDRINUSE
		}
	}
	s.bound = true
	s.addr = addr
	return OK
}

// SOMAXCONN is the default and maximum listen(2) backlog, as on Linux
// (net.core.somaxconn's historic default).
const SOMAXCONN = 128

// Listen marks a stream socket as accepting connections with the default
// backlog, like listen(fd, SOMAXCONN).
func (p *Proc) Listen(fd int) Errno { return p.ListenBacklog(fd, SOMAXCONN) }

// ListenBacklog is listen(2) with an explicit backlog: at most backlog
// connections may sit un-accepted; further connects are refused. Like the
// kernel, a backlog below 1 is raised to 1 and values above SOMAXCONN are
// silently clamped.
func (p *Proc) ListenBacklog(fd, backlog int) Errno {
	if e := p.sysEnter("listen"); e != OK {
		return e
	}
	s, errno := p.sockFor(fd)
	if errno != OK {
		return errno
	}
	if !s.bound || s.typ != SockStream {
		return EINVAL
	}
	if backlog < 1 {
		backlog = 1
	}
	if backlog > SOMAXCONN {
		backlog = SOMAXCONN
	}
	s.listening = true
	s.backlogMax = backlog
	p.k.net.listeners[s.addr] = s
	return OK
}

// Accept takes a pending connection, blocking until one arrives, and
// returns a connected socket fd.
func (p *Proc) Accept(fd int) (int, Errno) {
	if e := p.sysEnter("accept"); e != OK {
		return -1, e
	}
	s, errno := p.sockFor(fd)
	if errno != OK {
		return -1, errno
	}
	if !s.listening {
		return -1, EINVAL
	}
	for len(s.backlog) == 0 {
		if s.closed {
			return -1, EINVAL
		}
		p.blockOn(&s.acceptQ)
	}
	conn := s.backlog[0]
	s.backlog = s.backlog[1:]
	// Server-side connection establishment: SYN handling, socket
	// allocation, route binding — the dominant cost of the nginx-conn
	// scenario (§4.6).
	p.charge(p.netCost(p.k.cost.TCPAccept))
	nfd := &FD{refs: 1, kind: fdSocket, sock: conn}
	return p.fds.alloc(nfd), OK
}

// Connect connects a stream socket to a listener (loopback). Datagram
// sockets just record the default destination.
func (p *Proc) Connect(fd int, port int, path string) Errno {
	if e := p.sysEnter("connect"); e != OK {
		return e
	}
	s, errno := p.sockFor(fd)
	if errno != OK {
		return errno
	}
	addr := sockAddr{domain: s.domain, port: port, path: path}
	if s.typ == SockDgram {
		s.addr = addr // default peer for Send
		return OK
	}
	lst, ok := p.k.net.listeners[addr]
	if !ok || !lst.listening {
		return ECONNREFUSED
	}
	// A full accept backlog refuses the connection outright (the
	// tcp_abort_on_overflow behavior): backpressure reaches the client as
	// ECONNREFUSED instead of the queue growing without bound.
	if len(lst.backlog) >= lst.backlogMax {
		return ECONNREFUSED
	}
	p.charge(p.netCost(p.k.cost.TCPConn))
	// Build the connected pair: s <-> serverSide.
	serverSide := newSocket(s.domain, SockStream)
	s.in = newPipe()
	s.in.quiet = true
	serverSide.in = newPipe()
	serverSide.in.quiet = true
	s.peer = serverSide
	serverSide.peer = s
	lst.backlog = append(lst.backlog, serverSide)
	lst.acceptQ.wake(p.k, 1, p.cpu.now)
	p.k.wakePollers(p.cpu.now)
	return OK
}

// SocketPair creates a connected pair of UNIX stream sockets, like
// socketpair(2) (used by perf's messaging benchmark).
func (p *Proc) SocketPair() (int, int, Errno) {
	if e := p.sysEnter("socket"); e != OK {
		return -1, -1, e
	}
	p.k.trace(p, "socket:UNIX")
	if !p.k.img.Enabled("UNIX") {
		p.k.consolePrint("can't create UNIX socket\n")
		return -1, -1, EAFNOSUPPORT
	}
	a, b := newSocket(AFUnix, SockStream), newSocket(AFUnix, SockStream)
	a.in, b.in = newPipe(), newPipe()
	a.in.quiet, b.in.quiet = true, true
	a.peer, b.peer = b, a
	fa := &FD{refs: 1, kind: fdSocket, sock: a}
	fb := &FD{refs: 1, kind: fdSocket, sock: b}
	return p.fds.alloc(fa), p.fds.alloc(fb), OK
}

// send writes to the peer's inbound buffer.
func (s *socket) send(p *Proc, buf []byte) (int, Errno) {
	c := &p.k.cost
	// Loopback fault sites: an injected delay stalls the sender; an
	// injected drop loses a datagram outright (UDP semantics) or costs a
	// stream sender one retransmit timeout before delivery succeeds.
	if d := p.k.faultHit(SiteLoopbackDelay); d.Fire {
		us := d.Param
		if us <= 0 {
			us = 100
		}
		p.chargeRaw(simclock.Duration(us) * simclock.Microsecond)
	}
	dropped := false
	var rto int64
	if d := p.k.faultHit(SiteLoopbackDrop); d.Fire {
		dropped = true
		rto = d.Param
		if rto <= 0 {
			rto = 200
		}
	}
	if s.typ == SockDgram {
		p.charge(p.netCost(s.opCostBase(c)))
		dst, ok := p.k.net.dgramEPs[s.addr]
		if !ok {
			return 0, ECONNREFUSED
		}
		p.charge(p.netCost(chargeBytes(c.TCPBytePerKB, len(buf))))
		if dropped {
			return len(buf), OK // the datagram vanished on the wire
		}
		dst.dgrams = append(dst.dgrams, append([]byte(nil), buf...))
		dst.dgramQ.wake(p.k, 1, p.cpu.now)
		p.k.wakePollers(p.cpu.now)
		return len(buf), OK
	}
	if s.peer == nil {
		return 0, ENOTCONN
	}
	if dropped {
		p.chargeRaw(simclock.Duration(rto) * simclock.Microsecond)
	}
	p.charge(p.netCost(s.opCostBase(c)))
	return s.peer.in.write(p, buf)
}

// recv reads from this socket's inbound buffer.
func (s *socket) recv(p *Proc, buf []byte) (int, Errno) {
	c := &p.k.cost
	if s.typ == SockDgram {
		p.charge(p.netCost(s.opCostBase(c)))
		for len(s.dgrams) == 0 {
			if s.closed {
				return 0, OK
			}
			p.blockOn(&s.dgramQ)
		}
		d := s.dgrams[0]
		s.dgrams = s.dgrams[1:]
		n := copy(buf, d)
		p.charge(p.netCost(chargeBytes(c.TCPBytePerKB, n)))
		return n, OK
	}
	if s.in == nil {
		return 0, ENOTCONN
	}
	p.charge(p.netCost(s.opCostBase(c)))
	return s.in.read(p, buf)
}

func (s *socket) close(k *Kernel) {
	if s.closed {
		return
	}
	s.closed = true
	if s.listening {
		delete(k.net.listeners, s.addr)
		s.acceptQ.wakeAll(k, k.Now())
	}
	if s.typ == SockDgram && s.bound {
		delete(k.net.dgramEPs, s.addr)
		s.dgramQ.wakeAll(k, k.Now())
	}
	if s.peer != nil {
		// Our inbound pipe loses its writer; peer's loses its reader.
		s.in.closeWrite(k)
		s.peer.in.closeWrite(k)
		s.peer.peer = nil
		s.peer = nil
	}
	k.wakePollers(k.Now())
}

// readable reports whether a recv would not block.
func (s *socket) readable() bool {
	if s.listening {
		return len(s.backlog) > 0
	}
	if s.typ == SockDgram {
		return len(s.dgrams) > 0 || s.closed
	}
	return s.in != nil && s.in.readable()
}

func (p *Proc) sockFor(fd int) (*socket, Errno) {
	f := p.fds.get(fd)
	if f == nil {
		return nil, EBADF
	}
	if f.kind != fdSocket {
		return nil, ENOTSOCK
	}
	return f.sock, OK
}
