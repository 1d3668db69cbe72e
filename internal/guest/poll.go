package guest

import (
	"cmp"
	"slices"

	"lupine/internal/simclock"
)

type simDur = simclock.Duration

// epollInst is an epoll instance: a set of watched descriptors, sorted by
// descriptor number. Readiness is level-triggered and recomputed on wake,
// with a kernel-wide poller wait queue providing the wakeups.
type epollInst struct {
	interest []watched
}

// watched is one interest-set entry: the descriptor number and the open
// file description it named when it was added.
type watched struct {
	fd int
	f  *FD
}

// EpollCreate creates an epoll instance (gated on CONFIG_EPOLL).
func (p *Proc) EpollCreate() (int, Errno) {
	if e := p.sysEnter("epoll_create"); e != OK {
		p.k.consolePrint("epoll_create1 failed: function not implemented\n")
		return -1, e
	}
	fd := &FD{refs: 1, kind: fdEpoll, ep: &epollInst{}}
	return p.fds.alloc(fd), OK
}

// EpollCtl adds or removes a descriptor from the interest set.
func (p *Proc) EpollCtl(epfd, fd int, add bool) Errno {
	if e := p.sysEnter("epoll_ctl"); e != OK {
		return e
	}
	ef := p.fds.get(epfd)
	if ef == nil || ef.kind != fdEpoll {
		return EBADF
	}
	ep := ef.ep
	i, found := slices.BinarySearchFunc(ep.interest, fd, func(w watched, fd int) int { return cmp.Compare(w.fd, fd) })
	if !add {
		if found {
			ep.interest = slices.Delete(ep.interest, i, i+1)
		}
		return OK
	}
	tf := p.fds.get(fd)
	if tf == nil {
		return EBADF
	}
	if found {
		ep.interest[i].f = tf
	} else {
		ep.interest = slices.Insert(ep.interest, i, watched{fd, tf})
	}
	return OK
}

// EpollWait blocks until at least one watched descriptor is readable,
// like epoll_wait for EPOLLIN with an infinite timeout. It fills
// ready[:0] with the readable descriptors the way epoll_wait fills its
// events array, in ascending descriptor order, and returns the filled
// slice.
func (p *Proc) EpollWait(epfd int, ready []int) ([]int, Errno) {
	ready = ready[:0]
	if e := p.sysEnter("epoll_wait"); e != OK {
		return ready, e
	}
	ef := p.fds.get(epfd)
	if ef == nil || ef.kind != fdEpoll {
		return ready, EBADF
	}
	p.charge(p.k.cost.PollWork)
	for {
		if ready = ef.ep.scan(ready); len(ready) > 0 {
			return ready, OK
		}
		p.blockOn(&p.k.pollers)
	}
}

// scan appends the level-triggered readable set to out, in descriptor
// order.
func (ep *epollInst) scan(out []int) []int {
	for _, w := range ep.interest {
		if fdReadable(w.f) {
			out = append(out, w.fd)
		}
	}
	return out
}

func fdReadable(f *FD) bool {
	switch f.kind {
	case fdPipeR:
		return f.pipe.readable()
	case fdSocket:
		return f.sock.readable()
	case fdFile:
		return true
	}
	return false
}

// Select models select(2) over nfds descriptors with a zero timeout: it
// counts the ready ones and never blocks (cost only; callers pass the
// descriptors they care about). Used by lmbench's slct/100fd rows.
func (p *Proc) Select(fds []int) (int, Errno) {
	p.sysEnterFree("select")
	var scan simclock.Duration
	for _, fd := range fds {
		if f := p.fds.get(fd); f != nil && f.kind == fdSocket {
			scan += p.k.cost.SelectSockPerFD
		} else {
			scan += p.k.cost.SelectPerFD
		}
	}
	p.charge(p.netCost(scan))
	ready := 0
	for _, fd := range fds {
		if f := p.fds.get(fd); f != nil && fdReadable(f) {
			ready++
		}
	}
	return ready, OK
}

// --- eventfd / timerfd / signalfd / inotify / misc gated syscalls ---

// EventFD creates an eventfd (gated on CONFIG_EVENTFD); the descriptor is
// accepted but never becomes readable in this model.
func (p *Proc) EventFD() (int, Errno) {
	if e := p.sysEnter("eventfd2"); e != OK {
		p.k.consolePrint("eventfd failed: function not implemented\n")
		return -1, e
	}
	fd := &FD{refs: 1, kind: fdEventFD}
	return p.fds.alloc(fd), OK
}

// TimerFD creates a timerfd (gated on CONFIG_TIMERFD); the descriptor is
// accepted but never becomes readable in this model.
func (p *Proc) TimerFD() (int, Errno) {
	if e := p.sysEnter("timerfd_create"); e != OK {
		p.k.consolePrint("timerfd_create failed: function not implemented\n")
		return -1, e
	}
	fd := &FD{refs: 1, kind: fdTimerFD}
	return p.fds.alloc(fd), OK
}

// SignalFD creates a signalfd (gated on CONFIG_SIGNALFD); the descriptor
// is accepted but never becomes readable in this model.
func (p *Proc) SignalFD() (int, Errno) {
	if e := p.sysEnter("signalfd4"); e != OK {
		p.k.consolePrint("signalfd failed: function not implemented\n")
		return -1, e
	}
	fd := &FD{refs: 1, kind: fdSignalFD}
	return p.fds.alloc(fd), OK
}

// InotifyInit creates an inotify instance (gated on CONFIG_INOTIFY_USER).
func (p *Proc) InotifyInit() (int, Errno) {
	if e := p.sysEnter("inotify_init"); e != OK {
		p.k.consolePrint("inotify_init failed: function not implemented\n")
		return -1, e
	}
	fd := &FD{refs: 1, kind: fdInotify}
	return p.fds.alloc(fd), OK
}

// AioSetup initializes an AIO context (gated on CONFIG_AIO).
func (p *Proc) AioSetup() Errno {
	if e := p.sysEnter("io_setup"); e != OK {
		p.k.consolePrint("io_setup failed: function not implemented\n")
		return e
	}
	return OK
}

// Membarrier issues the membarrier syscall (gated on CONFIG_MEMBARRIER).
func (p *Proc) Membarrier() Errno {
	if e := p.sysEnter("membarrier"); e != OK {
		p.k.consolePrint("membarrier failed: function not implemented\n")
		return e
	}
	return OK
}

// KeyctlAddKey stores a key (gated on CONFIG_KEYS).
func (p *Proc) KeyctlAddKey(desc string) Errno {
	if e := p.sysEnter("add_key"); e != OK {
		p.k.consolePrint("add_key failed: function not implemented\n")
		return e
	}
	return OK
}
