package guest

import (
	"lupine/internal/kbuild"
	"lupine/internal/simclock"
)

// CostModel fixes the virtual-time price of every kernel operation. The
// constants are calibrated so that the simulated lmbench, context-switch
// and application benchmarks land on the relationships the paper reports
// (Figures 9-12, Tables 4 and 5): KML removes ~40% of null-syscall
// latency, specialization removes up to ~56% of write latency versus
// microVM, KPTI costs ~10x on syscall entry, SMP costs ≤8% on
// futex-heavy workloads, and the security mitigations Lupine drops cost
// microVM ~20% on macrobenchmarks.
type CostModel struct {
	// Syscall path.
	SyscallEntry     simclock.Duration // user<->kernel transition, round trip
	MitigationPerSys simclock.Duration // retpoline+seccomp+audit per syscall
	UsercopyRead     simclock.Duration // hardened usercopy check, read path
	UsercopyWrite    simclock.Duration // hardened usercopy check, write path

	// Scheduling.
	CtxSwitchBase    simclock.Duration // pick-next + register state
	CtxSwitchMitig   simclock.Duration // KASLR/strict-RWX cost per switch
	CtxSwitchAS      simclock.Duration // extra for crossing address spaces
	CtxSwitchASPTI   simclock.Duration // extra AS-cross cost with KPTI (TLB flush)
	CacheRefillPerKB simclock.Duration // working-set reload after a switch
	SMPLockOp        simclock.Duration // per lock acquire/release when CONFIG_SMP

	// Memory.
	PageFault      simclock.Duration // minor fault service (lazy allocation)
	PageFaultMitig simclock.Duration

	// Syscall work components (kernel-side, privilege independent).
	GetppidWork     simclock.Duration
	ReadWork        simclock.Duration
	WriteWork       simclock.Duration
	StatWork        simclock.Duration
	OpenWork        simclock.Duration
	CloseWork       simclock.Duration
	ForkWork        simclock.Duration
	ExecWork        simclock.Duration
	SignalInst      simclock.Duration
	SignalHndl      simclock.Duration
	SelectPerFD     simclock.Duration
	SelectSockPerFD simclock.Duration
	PollWork        simclock.Duration
	FutexWork       simclock.Duration

	// IPC and networking, per operation (one direction).
	PipeOp    simclock.Duration
	UnixOp    simclock.Duration
	UDPOp     simclock.Duration
	TCPOp     simclock.Duration
	TCPConn   simclock.Duration // client-side handshake
	TCPAccept simclock.Duration // server-side connection establishment
	// Per-byte streaming costs (applied via chargeBytes).
	PipeBytePerKB simclock.Duration
	TCPBytePerKB  simclock.Duration
	FileBytePerKB simclock.Duration

	// Filesystem metadata.
	FileCreateWork simclock.Duration
	FileDeleteWork simclock.Duration
	MmapWork       simclock.Duration

	// NetMitigationFactor scales socket/pipe operation costs when the
	// dropped security mitigations are configured in (Table 5 shows
	// microVM's local-communication latencies ~1.55-1.75x lupine's).
	NetMitigationFactor float64

	// RuntimeScale multiplies all user CPU work (-Os penalty).
	RuntimeScale float64
}

const ns = simclock.Nanosecond

// NewCostModel derives the effective cost model from a built kernel image.
func NewCostModel(img *kbuild.Image) CostModel {
	c := CostModel{
		SyscallEntry: 18 * ns,

		CtxSwitchBase:    400 * ns,
		CtxSwitchAS:      20 * ns,
		CacheRefillPerKB: 3 * ns,

		PageFault: 78 * ns,

		GetppidWork:     15 * ns,
		ReadWork:        20 * ns,
		WriteWork:       17 * ns,
		StatWork:        210 * ns,
		OpenWork:        390 * ns,
		CloseWork:       40 * ns,
		ForkWork:        42_000 * ns,
		ExecWork:        110_000 * ns,
		SignalInst:      52 * ns,
		SignalHndl:      340 * ns,
		SelectPerFD:     3 * ns, // plain descriptors
		SelectSockPerFD: 6 * ns, // sockets poll their transport state
		PollWork:        120 * ns,
		FutexWork:       95 * ns,

		PipeOp:    400 * ns,
		UnixOp:    520 * ns,
		UDPOp:     760 * ns,
		TCPOp:     980 * ns,
		TCPConn:   2600 * ns, // client-side handshake path
		TCPAccept: 9000 * ns, // server-side connection establishment

		PipeBytePerKB: 36 * ns, // ~13 GB/s per side before scaling
		TCPBytePerKB:  48 * ns,
		FileBytePerKB: 90 * ns, // page-cache copy, ~11 GB/s

		FileCreateWork: 900 * ns,
		FileDeleteWork: 650 * ns,
		MmapWork:       650_000 * ns,

		NetMitigationFactor: 1.0,
		RuntimeScale:        img.RuntimeScale(),
	}

	if img.KML() {
		// Kernel Mode Linux: syscall entry becomes a same-privilege call.
		c.SyscallEntry = 5 * ns
	}
	if img.Enabled("PAGE_TABLE_ISOLATION") {
		// KPTI: two CR3 writes and a TLB flush on every kernel entry
		// (§3.1.2: ~10x null system call latency) and on every
		// address-space switch.
		c.SyscallEntry += 300 * ns
		c.CtxSwitchASPTI = 1800 * ns
	}

	// Per-option mitigation costs (the 12 single-security-domain options
	// removed from lupine-base).
	if img.Enabled("RETPOLINE") {
		c.MitigationPerSys += 3 * ns
		c.NetMitigationFactor += 0.30
	}
	if img.Enabled("SECCOMP") {
		c.MitigationPerSys += 2 * ns
		if img.Enabled("SECCOMP_FILTER") {
			c.NetMitigationFactor += 0.05
		}
	}
	if img.Enabled("AUDIT") {
		c.MitigationPerSys += 2 * ns
		c.NetMitigationFactor += 0.15
	}
	if img.Enabled("HARDENED_USERCOPY") {
		c.UsercopyRead = 19 * ns
		c.UsercopyWrite = 38 * ns
		c.NetMitigationFactor += 0.05
	}
	if img.Enabled("RANDOMIZE_BASE") {
		c.CtxSwitchMitig += 75 * ns
	}
	if img.Enabled("STRICT_KERNEL_RWX") {
		c.CtxSwitchMitig += 55 * ns
	}
	if img.Enabled("STACKPROTECTOR_STRONG") {
		c.MitigationPerSys += 1 * ns
		c.PageFaultMitig += 12 * ns
	}
	if img.Enabled("SLAB_FREELIST_RANDOM") {
		c.PageFaultMitig += 14 * ns
	}
	if img.Enabled("SMP") {
		c.SMPLockOp = 8 * ns
		// mmap_sem and zone locks show up on the fault path even on one
		// CPU (§5's make -j overhead).
		c.PageFault += 2 * 8 * ns
	}
	return c
}

// syscallOverhead is the fixed price of entering and leaving the kernel.
func (c *CostModel) syscallOverhead() simclock.Duration {
	return c.SyscallEntry + c.MitigationPerSys
}

// ctxSwitch prices a context switch between two scheduling entities.
// sameAS reports whether they share an address space; wsKB is the working
// set (in KiB) that must be refaulted after the switch.
func (c *CostModel) ctxSwitch(sameAS bool, wsKB int) simclock.Duration {
	d := c.CtxSwitchBase + c.CtxSwitchMitig + 2*c.SMPLockOp
	if !sameAS {
		d += c.CtxSwitchAS + c.CtxSwitchASPTI
	}
	d += simclock.Duration(wsKB) * c.CacheRefillPerKB
	return d
}

// chargeBytes converts a per-KB rate into a cost for n bytes.
func chargeBytes(perKB simclock.Duration, n int) simclock.Duration {
	return simclock.Duration(int64(perKB) * int64(n) / 1024)
}

// scaleNet applies the mitigation factor to a socket/pipe operation cost.
func (c *CostModel) scaleNet(d simclock.Duration) simclock.Duration {
	return simclock.Duration(float64(d) * c.NetMitigationFactor)
}
