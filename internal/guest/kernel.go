package guest

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"lupine/internal/ext2"
	"lupine/internal/faults"
	"lupine/internal/kbuild"
	"lupine/internal/simclock"
)

// Params configures a guest kernel instance.
type Params struct {
	Image  *kbuild.Image
	Memory int64 // guest RAM in bytes (0 = 512 MiB, the paper's default)
	VCPUs  int   // virtual CPUs offered by the monitor (0 = 1)

	// RootFS is mounted read-write at /. The kernel shares the tree's
	// file bytes and copies a file on its first write, so the caller's
	// File.Data never changes.
	RootFS *ext2.File

	// MaxVirtualTime aborts the run if the simulation passes this much
	// virtual time, guarding against runaway models (0 = 1 virtual hour).
	MaxVirtualTime simclock.Duration

	// Faults optionally arms the kernel's fault-injection sites
	// (guest/*, net/*); nil runs fault-free.
	Faults *faults.Injector
}

// MiB is a convenience constant for memory sizes.
const MiB = int64(1 << 20)

// kernelBaseOverhead is the fixed runtime memory the kernel consumes
// beyond its loaded image: page tables, slabs, per-CPU areas, console.
const kernelBaseOverhead = 15 * MiB

// Kernel is a running simulated guest kernel.
type Kernel struct {
	img  *kbuild.Image
	cost CostModel

	cpus   []*cpu
	runq   []*Proc
	timers timerHeap
	seq    int // enqueue sequence for deterministic tie-breaking

	procs   map[int]*Proc
	nextPID int
	alive   int

	// current holds the CPU. A process that gives it up resumes its
	// successor itself, and signals halted when the run is over.
	current   *Proc
	halted    chan struct{}
	unwindAck chan struct{}

	// pollers is the kernel-wide wait queue epoll waiters park on;
	// every readiness change broadcasts to it (level-triggered re-check).
	pollers waitQueue

	shutdown bool
	aborted  error // a deadlock or the virtual-time guard ended the run
	panicked *PanicError
	maxTime  simclock.Time

	inj *faults.Injector

	memLimit int64
	memUsed  int64
	memPeak  int64

	// Balloon accounting (balloon.go): cleanCache is the resident clean
	// page cache the balloon can drop without guest cooperation (kernel
	// text and read-only data re-loadable from the image file);
	// ballooned is what the device currently holds away from the guest.
	cleanCache int64
	ballooned  int64

	console bytes.Buffer

	vfs     *vfs
	net     *netStack
	futexes map[futexKey]*waitQueue
	semIDs  int // System V semaphores created so far; the last id handed out
	tracer  *tracer
	stats   Stats

	nextASID int
}

// NewKernel constructs a guest kernel from a built image. It fails the
// same way Linux would if the image cannot run in the given memory.
func NewKernel(p Params) (*Kernel, error) {
	if p.Image == nil {
		return nil, fmt.Errorf("guest: nil kernel image")
	}
	mem := p.Memory
	if mem == 0 {
		mem = 512 * MiB
	}
	vcpus := p.VCPUs
	if vcpus <= 0 {
		vcpus = 1
	}
	// Without CONFIG_SMP the kernel runs on a single CPU regardless of
	// what the monitor offers.
	if !p.Image.Enabled("SMP") {
		vcpus = 1
	}
	maxT := p.MaxVirtualTime
	if maxT == 0 {
		maxT = simclock.Duration(3600) * simclock.Second
	}
	k := &Kernel{
		img:       p.Image,
		cost:      NewCostModel(p.Image),
		procs:     make(map[int]*Proc),
		nextPID:   1,
		halted:    make(chan struct{}),
		unwindAck: make(chan struct{}),
		pollers:   waitQueue{name: "poll"},
		maxTime:   simclock.Time(maxT),
		memLimit:  mem,
		futexes:   make(map[futexKey]*waitQueue),
		inj:       p.Faults,
	}
	for i := 0; i < vcpus; i++ {
		k.cpus = append(k.cpus, &cpu{})
	}
	// The kernel image and its fixed runtime structures occupy memory up
	// front; this is what makes specialized kernels' footprints smaller.
	static := p.Image.Size + kernelBaseOverhead
	if static > mem {
		return nil, fmt.Errorf("guest: out of memory: kernel needs %d MiB, have %d MiB",
			static/MiB+1, mem/MiB)
	}
	k.memUsed = static
	k.memPeak = static
	// The loaded image is clean file-backed memory: droppable under
	// pressure, re-faultable from the image afterwards. Page-align down
	// so balloon accounting stays page-granular.
	k.cleanCache = (p.Image.Size / pageSize) * pageSize
	k.vfs = newVFS(p.RootFS)
	k.net = newNetStack()
	return k, nil
}

// NumCPU reports the number of online CPUs.
func (k *Kernel) NumCPU() int { return len(k.cpus) }

// Now reports current virtual time: the running CPU's clock, or the
// furthest CPU when called from outside a process context.
func (k *Kernel) Now() simclock.Time {
	if k.current != nil && k.current.cpu != nil {
		return k.current.cpu.now
	}
	var max simclock.Time
	for _, c := range k.cpus {
		if c.now > max {
			max = c.now
		}
	}
	return max
}

// Console returns everything processes printed so far. Application models
// use the console for the success criteria and error messages that drive
// the §4.1 configuration search.
func (k *Kernel) Console() string { return k.console.String() }

// MemUsed reports current guest memory consumption in bytes.
func (k *Kernel) MemUsed() int64 { return k.memUsed }

// MemPeak reports the high-water mark of guest memory consumption.
func (k *Kernel) MemPeak() int64 { return k.memPeak }

// AppFunc is the body of a simulated process: application models receive
// their process handle and issue syscalls through it. The return value is
// the exit code.
type AppFunc func(p *Proc) int

// Spawn creates a new process running fn. It may be called before Run
// (init processes) or from inside a running process (via Fork/Exec
// helpers). The process starts runnable at the current virtual time. If
// there is not enough guest memory for its initial stack, the process is
// OOM-killed before fn runs — the mechanism behind the memory-footprint
// search of §4.4.
func (k *Kernel) Spawn(name string, fn AppFunc) *Proc {
	p := k.newProc(name, fn, nil)
	p.as = newAddrSpace(k)
	if e := p.as.commitStack(k); e != OK {
		p.oomAtStart = true
	}
	p.fds = newFDTable()
	return p
}

// Run dispatches processes until every process has exited, a process
// calls Poweroff, the kernel panics, or the virtual-time guard trips. It
// returns the structured *PanicError when the guest died of a modeled
// kernel panic, and a plain error on deadlock or guard abort.
//
// Run only resumes the first process: from then on each process that
// gives up the CPU picks and resumes its successor (release), and the
// last one wakes Run, which kills what is left.
func (k *Kernel) Run() error {
	if p := k.next(); p != nil {
		p.resume <- struct{}{}
		<-k.halted
	}
	if k.aborted != nil || k.shutdown {
		k.killAll()
	}
	if k.aborted != nil {
		return k.aborted
	}
	if k.panicked != nil {
		return k.panicked
	}
	return nil
}

func (k *Kernel) killAll() {
	// Wake every live process with the killed flag; each will unwind.
	var live []*Proc
	for _, p := range k.procs {
		if p.state != stateDead {
			live = append(live, p)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].pid < live[j].pid })
	for _, p := range live {
		p.killed = true
		if p.state == stateRunning {
			continue // cannot happen: killAll runs once the run is over
		}
		p.resume <- struct{}{}
		<-k.unwindAck
	}
	k.current = nil
}

// wakePollers broadcasts a readiness change to all parked poll waiters.
func (k *Kernel) wakePollers(t simclock.Time) {
	k.pollers.wakeAll(k, t)
}

// consolePrint appends to the guest console.
func (k *Kernel) consolePrint(s string) { k.console.WriteString(s) }

// ConsoleContains reports whether the console output includes the given
// text — the success-criteria check of §4.1.
func (k *Kernel) ConsoleContains(text string) bool {
	return strings.Contains(k.Console(), text)
}

// memAlloc attempts to allocate n bytes of guest memory.
func (k *Kernel) memAlloc(n int64) Errno {
	if k.memUsed+n > k.memLimit {
		return ENOMEM
	}
	k.memUsed += n
	if k.memUsed > k.memPeak {
		k.memPeak = k.memUsed
	}
	return OK
}

// memFree returns n bytes of guest memory. Accounting underflow is a
// kernel bug: instead of tearing the simulator down with a Go panic, the
// guest dies of a modeled kernel panic (BUG-on-corruption semantics) and
// the structured exit reason surfaces through Run.
func (k *Kernel) memFree(n int64) {
	k.memUsed -= n
	if k.memUsed < 0 {
		k.memUsed = 0
		k.oops("memory accounting underflow: freed more pages than allocated")
	}
}

// SpawnExternal creates a process modeling an out-of-guest benchmark
// client (redis-benchmark, ab): it exchanges traffic with guest servers
// through the loopback stack but pays fixed, configuration-independent
// costs, like a load generator pinned to separate host CPUs (§4).
func (k *Kernel) SpawnExternal(name string, fn AppFunc) *Proc {
	p := k.Spawn(name, fn)
	p.external = true
	return p
}

// KernelLog appends a dmesg-style line (with a virtual timestamp) to the
// console, used by the boot path to narrate the phases.
func (k *Kernel) KernelLog(at simclock.Duration, msg string) {
	k.consolePrint(fmt.Sprintf("[%10.6f] %s\n", at.Seconds(), msg))
}
