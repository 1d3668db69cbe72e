package guest

import (
	"fmt"

	"lupine/internal/simclock"
)

type procState int

const (
	stateReady procState = iota
	stateRunning
	stateBlocked
	stateDead
)

// Proc is a simulated process (or thread: threads are processes sharing an
// address space and file table). Application models hold a *Proc and issue
// system calls through its methods.
type Proc struct {
	k    *Kernel
	pid  int
	ppid int
	name string

	state      procState
	oomAtStart bool
	cpu        *cpu
	readyTime  simclock.Time
	enqueueSeq int
	blockedOn  *waitQueue
	killed     bool
	resume     chan struct{}

	as  *addrSpace
	fds *fdTable

	fn       AppFunc
	exitCode int
	waited   bool

	parent   *Proc
	children []*Proc
	chldQ    waitQueue

	env map[string]string

	// workingSetKB inflates context-switch cost with cache-refill work,
	// used by the lmbench ctxsw benchmarks (2p/16K etc.).
	workingSetKB int

	sigHandlers map[int]bool

	// external marks a process that models an out-of-guest load
	// generator (the paper's benchmark clients run on separate host
	// CPUs): its costs are constant and independent of the guest
	// kernel's configuration, so throughput ratios are driven by the
	// system under test.
	external bool
}

// newProc allocates a process. parent may be nil for init processes.
func (k *Kernel) newProc(name string, fn AppFunc, parent *Proc) *Proc {
	p := &Proc{
		k:           k,
		pid:         k.nextPID,
		name:        name,
		fn:          fn,
		resume:      make(chan struct{}),
		env:         make(map[string]string),
		chldQ:       waitQueue{name: "child-exit"},
		sigHandlers: make(map[int]bool),
	}
	k.nextPID++
	if parent != nil {
		p.ppid = parent.pid
		p.parent = parent
		parent.children = append(parent.children, p)
		for k2, v := range parent.env {
			p.env[k2] = v
		}
	} else {
		p.ppid = 0
	}
	k.procs[p.pid] = p
	k.alive++
	k.stats.ProcsCreated++
	var t simclock.Time
	if parent != nil && parent.cpu != nil {
		t = parent.cpu.now
	}
	p.state = stateBlocked // makeRunnable flips it to ready
	k.makeRunnable(p, t)
	go p.procMain()
	return p
}

// procExited carries an explicit Exit(code) out of arbitrarily deep app
// code; procMain recovers it.
type procExited struct{ code int }

// procMain is the goroutine body of every process.
func (p *Proc) procMain() {
	code := 0
	started := false
	defer func() {
		switch r := recover().(type) {
		case nil:
			// Normal return — or a runtime.Goexit from inside the app
			// model (e.g. t.Fatalf in a test): either way the process is
			// over, and it hands the CPU on.
		case procKilled:
			// Killed while parked: acknowledge the unwind on the side
			// channel so the killer (Run, or the OOM-killing process) sees it.
			p.k.unwindAck <- struct{}{}
			return
		case procExited:
			code = r.code
		default:
			panic(r)
		}
		if started {
			p.doExit(code)
			p.release()
		}
	}()
	<-p.resume
	started = true
	if p.killed {
		panic(procKilled{})
	}
	if p.oomAtStart {
		// The OOM killer got us before main(): the guest did not have
		// enough memory to start the process.
		p.k.consolePrint(fmt.Sprintf("Out of memory: Killed process %d (%s)\n", p.pid, p.name))
		code = 137
		return
	}
	code = p.fn(p)
}

// --- identity ---

// PID returns the process id.
func (p *Proc) PID() int { return p.pid }

// Name returns the process name (comm).
func (p *Proc) Name() string { return p.name }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Getppid is the getppid system call (lmbench's "null call").
func (p *Proc) Getppid() int {
	p.sysEnterFree("getppid")
	p.charge(p.k.cost.GetppidWork)
	return p.ppid
}

// --- syscall plumbing ---

// sysEnter charges syscall entry and checks that the kernel was built
// with the call. Returns ENOSYS for calls gated out by configuration —
// this is what produces the characteristic application error messages the
// §4.1 configuration search keys on.
func (p *Proc) sysEnter(name string) Errno {
	p.sysEnterFree(name)
	if !p.k.img.HasSyscall(name) {
		return ENOSYS
	}
	return OK
}

// sysEnterFree is sysEnter for calls no configuration option gates. A
// killed process makes no more syscalls: one its unwinding code defers
// (a Close, a Poweroff) unwinds with it, for it holds no CPU to charge.
func (p *Proc) sysEnterFree(name string) {
	if p.killed {
		panic(procKilled{})
	}
	p.k.stats.Syscalls++
	p.k.trace(p, name)
	p.chargeRaw(p.entryCost())
}

// entryCost is the syscall entry/exit price for this process: external
// load generators pay a fixed host-side cost regardless of guest config.
func (p *Proc) entryCost() simclock.Duration {
	if p.external {
		return 18 * simclock.Nanosecond
	}
	return p.k.cost.syscallOverhead()
}

// netCost scales a transport operation cost: guest processes pay the
// mitigation factor, external clients the base rate.
func (p *Proc) netCost(d simclock.Duration) simclock.Duration {
	if p.external {
		return d
	}
	return p.k.cost.scaleNet(d)
}

// --- CPU work ---

// Work consumes d of user-mode CPU time (application computation).
func (p *Proc) Work(d simclock.Duration) { p.charge(d) }

// WorkIters consumes iters iterations of a tight loop at perIter each,
// the busy-wait knob of Figure 10.
func (p *Proc) WorkIters(iters int, perIter simclock.Duration) {
	p.charge(simclock.Duration(iters) * perIter)
}

// SetWorkingSet declares the process's cache working set in KiB,
// inflating subsequent context switches (lmbench ctxsw sizes).
func (p *Proc) SetWorkingSet(kb int) { p.workingSetKB = kb }

// --- lifecycle ---

// Exit terminates the process with the given code, like exit(2). It does
// not return: it unwinds the goroutine to procMain.
func (p *Proc) Exit(code int) {
	panic(procExited{code: code})
}

func (p *Proc) doExit(code int) {
	if p.state == stateDead {
		return
	}
	p.exitCode = code
	p.state = stateDead
	p.k.alive--
	// Release resources.
	if p.fds != nil {
		p.fds.release(p)
	}
	if p.as != nil {
		p.as.release(p.k, p)
	}
	// Orphan children are reparented to init (ppid 1).
	for _, c := range p.children {
		c.ppid = 1
	}
	// Wake a waiting parent.
	if p.parent != nil && p.parent.state != stateDead {
		t := p.k.Now()
		if p.cpu != nil {
			t = p.cpu.now
		}
		p.parent.chldQ.wakeAll(p.k, t)
	}
}

// ExitCode reports the process's exit code (valid once dead).
func (p *Proc) ExitCode() int { return p.exitCode }

// Fork creates a child process running childFn, like fork(2): the child
// inherits the environment, an independent copy-on-write address space and
// a copy of the file descriptor table. Returns the child.
func (p *Proc) Fork(childFn AppFunc) (*Proc, Errno) {
	p.sysEnterFree("fork")
	p.charge(p.procCost(p.k.cost.ForkWork))
	child := p.k.newProc(p.name, childFn, p)
	child.as = p.as.forkCopy(p.k, child)
	if child.as == nil {
		// Not enough memory for the child's page tables and stack: the
		// OOM killer reaps it before it runs, like an overcommitted guest.
		child.oomAtStart = true
	}
	child.fds = p.fds.clone()
	child.workingSetKB = p.workingSetKB
	return child, OK
}

// CloneThread creates a thread: a process sharing the caller's address
// space and file table, like clone(CLONE_VM|CLONE_FILES).
func (p *Proc) CloneThread(name string, fn AppFunc) *Proc {
	p.sysEnterFree("clone")
	p.charge(p.k.cost.ForkWork / 4) // thread creation is much cheaper
	t := p.k.newProc(name, fn, p)
	t.as = p.as.share()
	t.fds = p.fds.share()
	t.workingSetKB = p.workingSetKB
	return t
}

// Execve replaces the process image with the program at path: the file
// must exist and be executable in the mounted root filesystem. The caller
// continues executing as the new program (its model code follows the
// call). Mirrors execve(2) costs and address-space reset.
func (p *Proc) Execve(path string) Errno {
	p.sysEnterFree("execve")
	node, errno := p.k.vfs.resolve(path)
	if errno != OK {
		return errno
	}
	if node.dir {
		return EACCES
	}
	if node.mode&0o111 == 0 {
		return EACCES
	}
	p.charge(p.procCost(p.k.cost.ExecWork))
	// Fresh address space: the old mappings are gone.
	p.as.release(p.k, p)
	p.as = newAddrSpace(p.k)
	if e := p.as.commitStack(p.k); e != OK {
		return e
	}
	p.name = path
	return OK
}

// procCost applies the mitigation factor for process-management paths
// (audit/SELinux/KASLR bookkeeping on fork/exec, Table 5's fork/exec/sh
// rows).
func (p *Proc) procCost(d simclock.Duration) simclock.Duration {
	img := p.k.img
	f := 1.0
	if img.Enabled("AUDIT") || img.Enabled("SECURITY_SELINUX") || img.Enabled("RANDOMIZE_BASE") {
		f *= 1.33
	}
	if img.Enabled("SMP") {
		// Page-table and mm locking during address-space duplication.
		f *= 1.05
	}
	return simclock.Duration(float64(d) * f)
}

// Wait blocks until some child exits and reaps it, like wait(2).
func (p *Proc) Wait() (pid, status int, errno Errno) {
	p.sysEnterFree("wait4")
	for {
		anyChild := false
		for _, c := range p.children {
			if c.waited {
				continue
			}
			anyChild = true
			if c.state == stateDead {
				c.waited = true
				return c.pid, c.exitCode, OK
			}
		}
		if !anyChild {
			return 0, 0, ECHILD
		}
		p.blockOn(&p.chldQ)
	}
}

// Nanosleep suspends the process for d of virtual time: only its timer
// wakes it.
func (p *Proc) Nanosleep(d simclock.Duration) {
	p.sysEnterFree("nanosleep")
	p.k.addTimer(p, p.cpu.now.Add(d))
	p.state = stateBlocked
	p.switchOut()
}

// Poweroff shuts the virtual machine down (reboot(2) with
// LINUX_REBOOT_CMD_POWER_OFF); the run ends when the caller exits.
func (p *Proc) Poweroff() {
	p.sysEnterFree("reboot")
	p.k.shutdown = true
	p.Exit(0)
}

// Env returns the process environment value for key.
func (p *Proc) Env(key string) string { return p.env[key] }

// Setenv sets an environment variable (inherited by future children).
func (p *Proc) Setenv(key, value string) { p.env[key] = value }

// Println writes a line to stdout (fd 1), the guest console.
func (p *Proc) Println(args ...interface{}) {
	s := fmt.Sprintln(args...)
	p.Write(1, []byte(s))
}

// Printf writes formatted output to stdout.
func (p *Proc) Printf(format string, args ...interface{}) {
	p.Write(1, []byte(fmt.Sprintf(format, args...)))
}
