package guest

// pipe is a classic bounded byte channel with blocking reader/writer
// semantics, used for pipe(2) and as the building block of stream
// sockets.
type pipe struct {
	quiet    bool   // sockets charge their own transport op; skip PipeOp
	buf      []byte // buf[off:] is unread
	off      int
	capacity int
	readers  int
	writers  int
	rq       waitQueue // readers waiting for data
	wq       waitQueue // writers waiting for space
}

const pipeCapacity = 65536

func newPipe() *pipe {
	return &pipe{
		capacity: pipeCapacity,
		readers:  1,
		writers:  1,
		rq:       waitQueue{name: "pipe-read"},
		wq:       waitQueue{name: "pipe-write"},
	}
}

// Pipe creates a pipe and returns (readFD, writeFD), like pipe(2).
func (p *Proc) Pipe() (int, int, Errno) {
	p.sysEnterFree("pipe2")
	pi := newPipe()
	r := &FD{refs: 1, kind: fdPipeR, pipe: pi}
	w := &FD{refs: 1, kind: fdPipeW, pipe: pi}
	return p.fds.alloc(r), p.fds.alloc(w), OK
}

func (pi *pipe) read(p *Proc, buf []byte) (int, Errno) {
	if !pi.quiet {
		p.charge(p.netCost(p.k.cost.PipeOp))
	}
	for pi.buffered() == 0 {
		if pi.writers == 0 {
			return 0, OK // EOF
		}
		p.blockOn(&pi.rq)
	}
	n := copy(buf, pi.buf[pi.off:])
	pi.off += n
	if pi.off == len(pi.buf) {
		pi.buf, pi.off = pi.buf[:0], 0 // drained: refill from the front
	}
	p.charge(p.netCost(chargeBytes(p.k.cost.PipeBytePerKB, n)))
	pi.wq.wakeAll(p.k, p.cpu.now)
	p.k.wakePollers(p.cpu.now)
	return n, OK
}

func (pi *pipe) write(p *Proc, buf []byte) (int, Errno) {
	if !pi.quiet {
		p.charge(p.netCost(p.k.cost.PipeOp))
	}
	if pi.readers == 0 {
		return 0, EPIPE
	}
	total := 0
	for len(buf) > 0 {
		space := pi.capacity - pi.buffered()
		for space == 0 {
			p.blockOn(&pi.wq)
			if pi.readers == 0 {
				return total, EPIPE
			}
			space = pi.capacity - pi.buffered()
		}
		n := min(len(buf), space)
		pi.reserve(n)
		pi.buf = append(pi.buf, buf[:n]...)
		buf = buf[n:]
		total += n
		p.charge(p.netCost(chargeBytes(p.k.cost.PipeBytePerKB, n)))
		pi.rq.wake(p.k, 1, p.cpu.now)
		p.k.wakePollers(p.cpu.now)
	}
	return total, OK
}

func (pi *pipe) closeRead(k *Kernel) {
	pi.readers--
	if pi.readers == 0 {
		pi.wq.wakeAll(k, k.Now())
		k.wakePollers(k.Now())
	}
}

func (pi *pipe) closeWrite(k *Kernel) {
	pi.writers--
	if pi.writers == 0 {
		pi.rq.wakeAll(k, k.Now())
		k.wakePollers(k.Now())
	}
}

// buffered is the count of unread bytes.
func (pi *pipe) buffered() int { return len(pi.buf) - pi.off }

// reserve makes room to append n more bytes without the array outgrowing
// the pipe's capacity: the unread bytes slide to the front, into a larger
// array only when the current one cannot hold them plus n.
func (pi *pipe) reserve(n int) {
	if len(pi.buf)+n <= cap(pi.buf) {
		return
	}
	unread := pi.buf[pi.off:]
	if need := len(unread) + n; need > cap(pi.buf) {
		grown := make([]byte, len(unread), min(pi.capacity, max(need, 2*cap(pi.buf))))
		copy(grown, unread)
		pi.buf = grown
	} else {
		pi.buf = pi.buf[:copy(pi.buf, unread)]
	}
	pi.off = 0
}

// readable reports whether a read would not block.
func (pi *pipe) readable() bool { return pi.buffered() > 0 || pi.writers == 0 }
