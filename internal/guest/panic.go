package guest

// Modeled kernel panic/oops semantics and the guest-owned fault-injection
// sites. A guest failure halts the virtual machine with a structured exit
// reason (like a real panic freezing the CPUs) instead of unwinding the
// simulator with a Go panic, so supervisors can observe and react to it.

import (
	"fmt"

	"lupine/internal/faults"
	"lupine/internal/simclock"
)

// Injection sites owned by the guest kernel and its loopback stack.
const (
	SitePageAlloc        = "guest/page-alloc"
	SiteOOMPressure      = "guest/oom-pressure"
	SiteSyscallTransient = "guest/syscall-transient"
	SiteLoopbackDrop     = "net/loopback-drop"
	SiteLoopbackDelay    = "net/loopback-delay"
)

func init() {
	faults.RegisterSite(SitePageAlloc, "guest",
		"a page allocation fails as if the buddy allocator were exhausted; the syscall returns ENOMEM")
	faults.RegisterSite(SiteOOMPressure, "guest",
		"a transient memory spike of Param bytes hits the guest; the OOM killer reaps a victim (CONFIG_MULTIPROCESS) or the kernel panics")
	faults.RegisterSite(SiteSyscallTransient, "guest",
		"read/write returns a transient error: Param 0=EINTR 1=EAGAIN 2=EIO")
	faults.RegisterSite(SiteLoopbackDrop, "net",
		"a loopback segment is dropped: streams pay a retransmit delay (Param us), datagrams are lost")
	faults.RegisterSite(SiteLoopbackDelay, "net",
		"a loopback send is delayed by Param microseconds")
}

// PanicError is the structured exit reason of a modeled kernel panic,
// returned by Kernel.Run (and VM.Run) when the guest dies.
type PanicError struct {
	Reason string
	At     simclock.Time
}

// Error renders the panic the way a monitor's serial log would show it.
func (e *PanicError) Error() string {
	return fmt.Sprintf("guest: kernel panic at %v: %s", e.At, e.Reason)
}

// oops records a kernel panic: the reason is frozen, the panic banner is
// printed, and the machine begins halting (the dispatcher stops at its
// next decision point). Only the first panic is recorded; a panic during
// panic teardown (e.g. accounting noise while killing processes) is
// dropped like nested oopses on a halting CPU.
func (k *Kernel) oops(reason string) {
	if k.panicked != nil {
		return
	}
	k.panicked = &PanicError{Reason: reason, At: k.Now()}
	k.consolePrint(fmt.Sprintf("Kernel panic - not syncing: %s\n", reason))
	k.consolePrint("---[ end Kernel panic - not syncing ]---\n")
	k.shutdown = true
}

// PanicReason returns the structured panic reason, or nil if the kernel
// has not panicked.
func (k *Kernel) PanicReason() *PanicError { return k.panicked }

// faultHit consults the injector for a kernel-owned site at the current
// virtual time.
func (k *Kernel) faultHit(site string) faults.Decision {
	d := k.inj.Hit(site, k.Now())
	if d.Fire {
		k.stats.FaultsInjected++
	}
	return d
}

// transientFault models EINTR/EAGAIN/EIO noise on the read/write path.
// External load generators never see guest faults.
func (p *Proc) transientFault() Errno {
	if p.external {
		return OK
	}
	d := p.k.faultHit(SiteSyscallTransient)
	if !d.Fire {
		return OK
	}
	switch d.Param {
	case 1:
		return EAGAIN
	case 2:
		return EIO
	default:
		return EINTR
	}
}

// allocFaults runs the page-allocation and OOM-pressure sites on the
// page-populating path (Touch/Alloc). It returns ENOMEM
// when an injected allocation failure fires. A pressure spike either
// invokes the OOM killer (CONFIG_MULTIPROCESS) or panics the kernel —
// configuration stays causal. Must be called from process context.
func (p *Proc) allocFaults() Errno {
	if d := p.k.faultHit(SitePageAlloc); d.Fire {
		return ENOMEM
	}
	if d := p.k.faultHit(SiteOOMPressure); d.Fire {
		p.k.oomPressure(p, d.Param)
	}
	return OK
}

// oomPressure handles a transient allocation spike of spike bytes on top
// of current usage. If the deficit cannot be covered, victims are killed
// (largest resident set first, like badness scoring) until it is — or,
// without CONFIG_MULTIPROCESS, the kernel panics unikernel-style.
func (k *Kernel) oomPressure(cur *Proc, spike int64) {
	deficit := k.memUsed + spike - k.memLimit
	if deficit <= 0 {
		return
	}
	if !k.img.Enabled("MULTIPROCESS") {
		k.oops(fmt.Sprintf("Out of memory: %d MiB spike with no OOM killer (CONFIG_MULTIPROCESS=n)", spike/MiB))
		cur.Exit(137)
	}
	for deficit > 0 {
		victim := k.pickOOMVictim(cur)
		if victim == nil {
			k.oops("System is deadlocked on memory: out of memory and no killable processes")
			cur.Exit(137)
		}
		freed := victim.as.committed
		k.oomKill(victim, cur.cpu.now)
		deficit -= freed
	}
}

// pickOOMVictim selects the live process with the largest resident set,
// sparing init (pid 1), the currently allocating process and external
// load generators. Ties break toward the lowest pid for determinism.
func (k *Kernel) pickOOMVictim(cur *Proc) *Proc {
	var victim *Proc
	for _, p := range k.procs {
		if p == cur || p.state == stateDead || p.pid == 1 || p.external || p.as == nil {
			continue
		}
		if victim == nil ||
			p.as.committed > victim.as.committed ||
			(p.as.committed == victim.as.committed && p.pid < victim.pid) {
			victim = p
		}
	}
	return victim
}

// oomKill terminates a victim the way the OOM killer does: SIGKILL
// semantics plus the canonical console line. Runs from the killing
// process's context.
func (k *Kernel) oomKill(victim *Proc, t simclock.Time) {
	k.consolePrint(fmt.Sprintf("Out of memory: Killed process %d (%s) total-vm:%dkB\n",
		victim.pid, victim.name, victim.as.committed/1024))
	k.stats.OOMKills++
	victim.killed = true
	victim.doExit(137)
	if victim.blockedOn != nil {
		victim.blockedOn.remove(victim)
		victim.blockedOn = nil
	}
	k.reapKilled(victim)
}
