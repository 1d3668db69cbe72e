// Package perfbench reimplements the multi-process benchmarks of §5:
// perf's sched-messaging benchmark (Figure 12, threads vs processes over
// UNIX socketpairs), the sem_posix and futex stress workloads, and a
// make -j kernel-build model — the experiments quantifying what relaxing
// the unikernel restrictions costs Lupine.
package perfbench

import (
	"fmt"

	"lupine/internal/ext2"
	"lupine/internal/guest"
	"lupine/internal/kbuild"
	"lupine/internal/simclock"
)

// Mode selects the messaging benchmark's concurrency primitive.
type Mode int

// Messaging modes: perf bench sched messaging [--thread].
const (
	Processes Mode = iota
	Threads
)

func (m Mode) String() string {
	if m == Threads {
		return "thread"
	}
	return "process"
}

// messagesPerPair is how many messages each sender sends each receiver.
const messagesPerPair = 20

// messageBytes is the perf-default 100-byte message size.
const messageBytes = 100

// Messaging runs the perf sched-messaging benchmark: groups of 10 senders
// and 10 receivers exchange messages over UNIX socketpairs. It returns
// total virtual time.
func Messaging(img *kbuild.Image, groups int, mode Mode) (simclock.Duration, error) {
	k, err := guest.NewKernel(guest.Params{
		Image:  img,
		RootFS: benchFS(),
	})
	if err != nil {
		return 0, err
	}
	var elapsed simclock.Duration
	k.Spawn("perf-messaging", func(p *guest.Proc) int {
		const perGroup = 10
		// Every group: 10 socketpairs, a receiver draining each, a sender
		// feeding each.
		spawn := func(name string, fn guest.AppFunc) {
			if mode == Threads {
				p.CloneThread(name, fn)
			} else {
				p.Fork(fn)
			}
		}
		for g := 0; g < groups; g++ {
			for i := 0; i < perGroup; i++ {
				a, b, e := p.SocketPair()
				if e != guest.OK {
					p.Println("messaging: socketpair failed")
					return 1
				}
				spawn("receiver", func(c *guest.Proc) int {
					buf := make([]byte, 128)
					// Stream reads may coalesce messages: count bytes.
					want := messagesPerPair * messageBytes
					for got := 0; got < want; {
						n, e := c.Read(a, buf)
						if e != guest.OK || n == 0 {
							return 1
						}
						got += n
					}
					return 0
				})
				spawn("sender", func(c *guest.Proc) int {
					msg := make([]byte, messageBytes)
					for s := 0; s < messagesPerPair; s++ {
						if _, e := c.Write(b, msg); e != guest.OK {
							return 1
						}
					}
					return 0
				})
			}
		}
		// Workers have not run yet (cooperative scheduling): starting the
		// clock here scopes the measurement to the messaging phase, the
		// context-switch comparison §5 is after, rather than to
		// fork-vs-pthread creation costs.
		start := p.Kernel().Now()
		for {
			if _, _, e := p.Wait(); e != guest.OK {
				break
			}
		}
		elapsed = p.Kernel().Now().Sub(start)
		return 0
	})
	if err := k.Run(); err != nil {
		return 0, err
	}
	return elapsed, nil
}

// SemPosix runs the sem_posix stress of §5: workers ping through POSIX
// semaphore wait/post pairs. POSIX semaphores are futex-backed but carry
// library-side bookkeeping per operation, which dilutes the SMP locking
// fraction (the paper measures <=3% here versus <=8% for raw futexes).
// The guest gets vcpus CPUs, as with MakeJ.
func SemPosix(img *kbuild.Image, workers, rounds, vcpus int) (simclock.Duration, error) {
	return futexStress(img, workers, rounds, vcpus, "sem_posix", 2*simclock.Microsecond)
}

// FutexStress runs the §5 futex stress: worker groups hammering raw
// futex wait/wake pairs with no userspace work in between, on vcpus
// CPUs.
func FutexStress(img *kbuild.Image, workers, rounds, vcpus int) (simclock.Duration, error) {
	return futexStress(img, workers, rounds, vcpus, "futex", 0)
}

func futexStress(img *kbuild.Image, workers, rounds, vcpus int, name string, perRound simclock.Duration) (simclock.Duration, error) {
	if !img.HasSyscall("futex") {
		return 0, fmt.Errorf("perfbench: %s needs CONFIG_FUTEX", name)
	}
	k, err := guest.NewKernel(guest.Params{Image: img, VCPUs: vcpus, RootFS: benchFS()})
	if err != nil {
		return 0, err
	}
	var elapsed simclock.Duration
	k.Spawn(name, func(p *guest.Proc) int {
		start := p.Kernel().Now()
		for w := 0; w < workers; w++ {
			addr := uint64(0x10000 + w)
			// One poster and one waiter per worker pair; they alternate
			// through the futex word rounds times.
			waiter := p.CloneThread("waiter", func(c *guest.Proc) int {
				for r := 0; r < rounds; r++ {
					c.FutexWait(addr, nil)
					c.FutexWake(addr+1000000, 1)
				}
				return 0
			})
			_ = waiter
			p.Yield() // let the waiter park
			for r := 0; r < rounds; r++ {
				if perRound > 0 {
					p.Work(perRound) // semaphore library bookkeeping
				}
				for {
					n, _ := p.FutexWake(addr, 1)
					if n == 1 {
						break
					}
					p.Yield()
				}
				p.FutexWait(addr+1000000, nil)
			}
		}
		for {
			if _, _, e := p.Wait(); e != guest.OK {
				break
			}
		}
		elapsed = p.Kernel().Now().Sub(start)
		return 0
	})
	if err := k.Run(); err != nil {
		return 0, err
	}
	return elapsed, nil
}

// MakeJ models `make -jN` of a kernel build: `jobs` compile steps, each a
// fork+exec of the compiler plus CPU work and file I/O, dispatched with
// unlimited parallelism (the scheduler's CPUs are the limit, as with a
// large -j).
func MakeJ(img *kbuild.Image, jobs int, vcpus int) (simclock.Duration, error) {
	k, err := guest.NewKernel(guest.Params{
		Image:  img,
		VCPUs:  vcpus,
		RootFS: benchFS(),
		Memory: 2048 * guest.MiB,
	})
	if err != nil {
		return 0, err
	}
	var elapsed simclock.Duration
	k.Spawn("make", func(p *guest.Proc) int {
		start := p.Kernel().Now()
		for j := 0; j < jobs; j++ {
			j := j
			p.Fork(func(c *guest.Proc) int {
				if e := c.Execve("/bin/cc"); e != guest.OK {
					return 1
				}
				// Compiler heap: allocated and faulted in page by page.
				if e := c.Alloc(768 * 1024); e != guest.OK {
					return 1
				}
				// Parse + codegen.
				c.Work(800 * simclock.Microsecond)
				fd, _ := c.Open(fmt.Sprintf("/data/obj%04d.o", j), guest.OWronly|guest.OCreat)
				c.Write(fd, make([]byte, 8192))
				c.Close(fd)
				return 0
			})
		}
		for {
			if _, _, e := p.Wait(); e != guest.OK {
				break
			}
		}
		elapsed = p.Kernel().Now().Sub(start)
		return 0
	})
	if err := k.Run(); err != nil {
		return 0, err
	}
	return elapsed, nil
}

func benchFS() *ext2.File {
	return ext2.NewDir("",
		ext2.NewDir("bin",
			ext2.NewFile("cc", 0o755, []byte("\x7fELF cc")),
		),
		ext2.NewDir("data"),
	)
}
