package guest

// futexKey identifies a futex word: an address within an address space.
// Threads sharing an address space share futexes.
type futexKey struct {
	asID int
	addr uint64
}

func (k *Kernel) futexQueue(key futexKey) *waitQueue {
	wq, ok := k.futexes[key]
	if !ok {
		wq = &waitQueue{name: "futex"}
		k.futexes[key] = wq
	}
	return wq
}

// FutexWait blocks the caller on the futex word at addr if cond() is
// still true (the "value still equals expected" check of futex(2),
// expressed as a predicate to keep the model race-free). Gated on
// CONFIG_FUTEX — without it glibc-based applications fail with "the
// futex facility returned an unexpected error code" (§4.1).
func (p *Proc) FutexWait(addr uint64, cond func() bool) Errno {
	if e := p.sysEnter("futex"); e != OK {
		p.k.consolePrint("the futex facility returned an unexpected error code\n")
		return e
	}
	p.charge(p.k.cost.FutexWork + 2*p.k.cost.SMPLockOp)
	if cond != nil && !cond() {
		return EAGAIN // value changed before we slept
	}
	key := p.futexKeyFor(addr)
	p.blockOn(p.k.futexQueue(key))
	return OK
}

// FutexWake wakes up to n waiters on the futex word at addr, returning
// how many were woken.
func (p *Proc) FutexWake(addr uint64, n int) (int, Errno) {
	if e := p.sysEnter("futex"); e != OK {
		p.k.consolePrint("the futex facility returned an unexpected error code\n")
		return 0, e
	}
	p.charge(p.k.cost.FutexWork + 2*p.k.cost.SMPLockOp)
	return p.k.futexQueue(p.futexKeyFor(addr)).wake(p.k, n, p.cpu.now), OK
}

func (p *Proc) futexKeyFor(addr uint64) futexKey {
	return futexKey{asID: p.as.id, addr: addr}
}

// SetRobustList is the glibc startup call (gated on CONFIG_FUTEX).
func (p *Proc) SetRobustList() Errno {
	if e := p.sysEnter("set_robust_list"); e != OK {
		p.k.consolePrint("the futex facility returned an unexpected error code\n")
		return e
	}
	return OK
}
