package guest

import "lupine/internal/simclock"

// Memory model: address spaces account committed pages against the guest
// RAM limit. Mappings are reserved lazily and committed on touch, which is
// what gives Linux-based systems their flat memory footprint in Figure 8
// (the binary is loaded lazily, so kernel size dominates).

const pageSize = 4096

// stackBytes is the eagerly committed initial stack + loader footprint of
// a new process.
const stackBytes = 128 * 1024

// pageTableBytes is the fixed bookkeeping cost of an address space.
const pageTableBytes = 16 * 1024

type addrSpace struct {
	id   int
	refs int

	reserved  int64 // mapped but not populated (lazy)
	committed int64 // resident, charged against guest RAM
}

func newAddrSpace(k *Kernel) *addrSpace {
	k.nextASID++
	return &addrSpace{id: k.nextASID, refs: 1}
}

// commitStack charges the initial stack and page tables.
func (as *addrSpace) commitStack(k *Kernel) Errno {
	return as.commit(k, stackBytes+pageTableBytes)
}

// commit makes n bytes resident (page-granular).
func (as *addrSpace) commit(k *Kernel, n int64) Errno {
	pages := (n + pageSize - 1) / pageSize
	bytes := pages * pageSize
	if e := k.memAlloc(bytes); e != OK {
		return e
	}
	as.committed += bytes
	k.stats.PageFaultPages += pages
	return OK
}

// uncommit releases n resident bytes.
func (as *addrSpace) uncommit(k *Kernel, n int64) {
	pages := (n + pageSize - 1) / pageSize
	bytes := pages * pageSize
	if bytes > as.committed {
		bytes = as.committed
	}
	as.committed -= bytes
	k.memFree(bytes)
}

// share bumps the refcount for a thread sharing this address space.
func (as *addrSpace) share() *addrSpace {
	as.refs++
	return as
}

// forkCopy builds a copy-on-write duplicate: the child shares resident
// pages and pays only for fresh page tables and its stack. Returns nil if
// the guest is out of memory.
func (as *addrSpace) forkCopy(k *Kernel, child *Proc) *addrSpace {
	cp := newAddrSpace(k)
	cp.reserved = as.reserved
	if e := cp.commitStack(k); e != OK {
		return nil
	}
	return cp
}

// release drops a reference and frees the resident pages when the last
// user exits.
func (as *addrSpace) release(k *Kernel, p *Proc) {
	as.refs--
	if as.refs > 0 {
		return
	}
	if as.committed > 0 {
		k.memFree(as.committed)
		as.committed = 0
	}
	as.reserved = 0
}

// --- process-facing memory syscalls ---

// Mmap maps length bytes of anonymous memory lazily: pages are committed
// on Touch.
func (p *Proc) Mmap(length int64) Errno {
	p.sysEnterFree("mmap")
	p.charge(p.k.cost.MmapWork / 100) // anonymous maps are far cheaper than lmbench's file map
	if length <= 0 {
		return EINVAL
	}
	p.as.reserved += length
	return OK
}

// MmapFile models lmbench's file mmap: map, fault and unmap a file region.
func (p *Proc) MmapFile(length int64) Errno {
	p.sysEnterFree("mmap")
	p.charge(p.k.cost.MmapWork)
	return OK
}

// Touch populates n bytes of previously mapped memory, charging a minor
// page fault per page (lazy allocation — §4.4 discusses how this keeps
// redis's large allocations out of the measured footprint until used).
func (p *Proc) Touch(n int64) Errno {
	if n <= 0 {
		return EINVAL
	}
	pages := (n + pageSize - 1) / pageSize
	p.charge(simclock.Duration(pages) * p.pageFaultCost())
	if p.as.reserved < n {
		p.as.reserved = 0
	} else {
		p.as.reserved -= n
	}
	if e := p.allocFaults(); e != OK {
		return e
	}
	return p.as.commit(p.k, n)
}

// Alloc is the common malloc-and-use pattern: reserve and immediately
// populate.
func (p *Proc) Alloc(n int64) Errno {
	if e := p.Mmap(n); e != OK {
		return e
	}
	return p.Touch(n)
}

// FreeMem returns n bytes to the kernel (munmap of populated pages).
func (p *Proc) FreeMem(n int64) {
	p.sysEnterFree("munmap")
	p.as.uncommit(p.k, n)
}

// PageFault charges one minor-fault service (lmbench's page-fault row).
func (p *Proc) PageFault() {
	p.charge(p.pageFaultCost())
}

// ProtFault charges a protection-fault service (lmbench's prot-fault row).
func (p *Proc) ProtFault() {
	p.charge(p.pageFaultCost() * 3)
}

func (p *Proc) pageFaultCost() simclock.Duration {
	return p.k.cost.PageFault + p.k.cost.PageFaultMitig
}

// Resident reports the process's committed bytes.
func (p *Proc) Resident() int64 { return p.as.committed }
