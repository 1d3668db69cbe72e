package guest

import (
	"strings"
	"testing"

	"lupine/internal/ext2"
	"lupine/internal/kbuild"
	"lupine/internal/kconfig"
	"lupine/internal/kerneldb"
	"lupine/internal/simclock"
)

// buildImage builds a kernel image for tests. extra options are layered on
// the named base profile.
func buildImage(t testing.TB, profile string, extra ...string) *kbuild.Image {
	t.Helper()
	db := kerneldb.MustLoad()
	var req *kconfig.Request
	switch profile {
	case "microvm":
		req = db.MicroVMRequest()
	case "lupine-base":
		req = db.LupineBaseRequest()
	case "lupine-kml":
		req = db.LupineBaseRequest().
			Set("PARAVIRT", kconfig.No).
			Enable("KERNEL_MODE_LINUX")
	default:
		t.Fatalf("unknown profile %q", profile)
	}
	req.Enable(extra...)
	cfg, err := db.ResolveProfile(req)
	if err != nil {
		t.Fatal(err)
	}
	img, err := kbuild.Build(db, profile, cfg, kbuild.O2)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func newTestKernel(t *testing.T, profile string, extra ...string) *Kernel {
	t.Helper()
	img := buildImage(t, profile, extra...)
	k, err := NewKernel(Params{Image: img, RootFS: testRootFS()})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func testRootFS() *ext2.File {
	return ext2.NewDir("",
		ext2.NewDir("bin",
			ext2.NewFile("hello", 0o755, []byte("\x7fELF hello")),
			ext2.NewFile("app", 0o755, []byte("\x7fELF app")),
		),
		ext2.NewDir("etc",
			ext2.NewFile("hostname", 0o644, []byte("lupine\n")),
		),
		ext2.NewDir("data"),
	)
}

func TestHelloWorldRuns(t *testing.T) {
	k := newTestKernel(t, "lupine-base")
	k.Spawn("hello", func(p *Proc) int {
		p.Println("hello world")
		return 0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !k.ConsoleContains("hello world") {
		t.Fatalf("console = %q", k.Console())
	}
	if k.Now() <= 0 {
		t.Error("no virtual time elapsed")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (simclock.Time, string) {
		k := newTestKernel(t, "lupine-base", "UNIX", "EPOLL", "FUTEX")
		k.Spawn("main", func(p *Proc) int {
			a, b, _ := p.SocketPair()
			child, _ := p.Fork(func(c *Proc) int {
				buf := make([]byte, 16)
				for i := 0; i < 50; i++ {
					n, _ := c.Read(a, buf)
					c.Write(a, buf[:n])
				}
				return 7
			})
			buf := make([]byte, 16)
			for i := 0; i < 50; i++ {
				p.Write(b, []byte("ping"))
				p.Read(b, buf)
			}
			pid, status, _ := p.Wait()
			p.Printf("child %d exited %d\n", pid, status)
			_ = child
			return 0
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return k.Now(), k.Console()
	}
	t1, c1 := run()
	t2, c2 := run()
	if t1 != t2 || c1 != c2 {
		t.Fatalf("nondeterministic run: %v/%v, %q vs %q", t1, t2, c1, c2)
	}
	if !strings.Contains(c1, "exited 7") {
		t.Errorf("console = %q", c1)
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := newTestKernel(t, "lupine-base")
	k.Spawn("stuck", func(p *Proc) int {
		r, _, _ := p.Pipe()
		buf := make([]byte, 1)
		p.Read(r, buf) // nobody will ever write, and we hold the write end open
		return 0
	})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
}

func TestSyscallGatingAndErrorMessages(t *testing.T) {
	// lupine-base has no FUTEX/EPOLL/UNIX: apps fail with the paper's
	// characteristic messages (§4.1).
	k := newTestKernel(t, "lupine-base")
	k.Spawn("needy", func(p *Proc) int {
		if e := p.SetRobustList(); e != ENOSYS {
			t.Errorf("set_robust_list = %v, want ENOSYS", e)
		}
		if _, e := p.EpollCreate(); e != ENOSYS {
			t.Errorf("epoll_create = %v, want ENOSYS", e)
		}
		if _, e := p.Socket(AFUnix, SockStream); e != EAFNOSUPPORT {
			t.Errorf("unix socket = %v, want EAFNOSUPPORT", e)
		}
		return 1
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, msg := range []string{
		"the futex facility returned an unexpected error code",
		"epoll_create1 failed: function not implemented",
		"can't create UNIX socket",
	} {
		if !k.ConsoleContains(msg) {
			t.Errorf("console missing %q; got %q", msg, k.Console())
		}
	}

	// With the options enabled the same calls succeed.
	k2 := newTestKernel(t, "lupine-base", "FUTEX", "EPOLL", "UNIX")
	k2.Spawn("happy", func(p *Proc) int {
		if e := p.SetRobustList(); e != OK {
			t.Errorf("set_robust_list = %v", e)
		}
		if _, e := p.EpollCreate(); e != OK {
			t.Errorf("epoll_create = %v", e)
		}
		if fd, e := p.Socket(AFUnix, SockStream); e != OK || fd < 0 {
			t.Errorf("unix socket = %v", e)
		}
		return 0
	})
	if err := k2.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestVFSReadWrite(t *testing.T) {
	k := newTestKernel(t, "lupine-base", "PROC_FS", "TMPFS")
	k.Spawn("io", func(p *Proc) int {
		// Read a file baked into the ext2 rootfs.
		fd, e := p.Open("/etc/hostname", ORdonly)
		if e != OK {
			t.Fatalf("open: %v", e)
		}
		buf := make([]byte, 64)
		n, e := p.Read(fd, buf)
		if e != OK || string(buf[:n]) != "lupine\n" {
			t.Fatalf("read = %q, %v", buf[:n], e)
		}
		p.Close(fd)

		// Create, write, re-read, delete.
		fd, e = p.Open("/data/out.txt", OWronly|OCreat)
		if e != OK {
			t.Fatalf("create: %v", e)
		}
		p.Write(fd, []byte("payload"))
		p.Close(fd)
		st, e := p.Stat("/data/out.txt")
		if e != OK || st.Size != 7 {
			t.Fatalf("stat = %+v, %v", st, e)
		}
		if e := p.Unlink("/data/out.txt"); e != OK {
			t.Fatalf("unlink: %v", e)
		}
		if _, e := p.Stat("/data/out.txt"); e != ENOENT {
			t.Fatalf("stat after unlink = %v", e)
		}

		// Mount procfs (enabled) and read meminfo.
		if e := p.Mount("proc", "/proc"); e != OK {
			t.Fatalf("mount proc: %v", e)
		}
		fd, e = p.Open("/proc/meminfo", ORdonly)
		if e != OK {
			t.Fatalf("open meminfo: %v", e)
		}
		n, _ = p.Read(fd, buf)
		if !strings.Contains(string(buf[:n]), "MemTotal") {
			t.Fatalf("meminfo = %q", buf[:n])
		}

		// /dev/zero and /dev/null behave.
		zfd, _ := p.Open("/dev/zero", ORdonly)
		n, e = p.Read(zfd, buf[:8])
		if e != OK || n != 8 || buf[0] != 0 {
			t.Fatalf("read /dev/zero = %d, %v", n, e)
		}
		nfd, _ := p.Open("/dev/null", OWronly)
		if n, e := p.Write(nfd, []byte("discard")); e != OK || n != 7 {
			t.Fatalf("write /dev/null = %d, %v", n, e)
		}
		return 0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMountGating(t *testing.T) {
	k := newTestKernel(t, "lupine-base") // no PROC_FS, no TMPFS
	k.Spawn("m", func(p *Proc) int {
		if e := p.Mount("proc", "/proc"); e != ENOSYS {
			t.Errorf("mount proc = %v, want ENOSYS", e)
		}
		if e := p.Mount("tmpfs", "/tmp"); e != ENOSYS {
			t.Errorf("mount tmpfs = %v, want ENOSYS", e)
		}
		return 0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !k.ConsoleContains("unknown filesystem type 'proc'") {
		t.Errorf("console = %q", k.Console())
	}
}

func TestForkWaitExit(t *testing.T) {
	k := newTestKernel(t, "lupine-base")
	k.Spawn("parent", func(p *Proc) int {
		child, e := p.Fork(func(c *Proc) int {
			c.Work(10 * simclock.Microsecond)
			return 42
		})
		if e != OK {
			t.Fatalf("fork: %v", e)
		}
		pid, status, e := p.Wait()
		if e != OK || pid != child.PID() || status != 42 {
			t.Fatalf("wait = %d, %d, %v", pid, status, e)
		}
		if _, _, e := p.Wait(); e != ECHILD {
			t.Fatalf("second wait = %v, want ECHILD", e)
		}
		return 0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestExecve(t *testing.T) {
	k := newTestKernel(t, "lupine-base")
	k.Spawn("init", func(p *Proc) int {
		if e := p.Execve("/bin/missing"); e != ENOENT {
			t.Errorf("exec missing = %v", e)
		}
		if e := p.Execve("/etc/hostname"); e != EACCES {
			t.Errorf("exec non-executable = %v", e)
		}
		if e := p.Execve("/bin/app"); e != OK {
			t.Errorf("exec app = %v", e)
		}
		if p.Name() != "/bin/app" {
			t.Errorf("name after exec = %q", p.Name())
		}
		return 0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestOOMKill(t *testing.T) {
	img := buildImage(t, "lupine-base")
	k, err := NewKernel(Params{Image: img, Memory: 24 * MiB, RootFS: testRootFS()})
	if err != nil {
		t.Fatal(err)
	}
	k.Spawn("hog", func(p *Proc) int {
		if e := p.Alloc(64 * MiB); e != ENOMEM {
			t.Errorf("Alloc = %v, want ENOMEM", e)
		}
		return 0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Kernel too big for tiny memory fails at construction.
	if _, err := NewKernel(Params{Image: img, Memory: 8 * MiB}); err == nil {
		t.Error("kernel booted in 8 MiB despite larger image")
	}
}

func TestTCPSockets(t *testing.T) {
	k := newTestKernel(t, "lupine-base", "EPOLL")
	k.Spawn("server", func(p *Proc) int {
		fd, e := p.Socket(AFInet, SockStream)
		if e != OK {
			t.Fatalf("socket: %v", e)
		}
		if e := p.Bind(fd, 8080, ""); e != OK {
			t.Fatalf("bind: %v", e)
		}
		if e := p.Listen(fd); e != OK {
			t.Fatalf("listen: %v", e)
		}
		conn, e := p.Accept(fd)
		if e != OK {
			t.Fatalf("accept: %v", e)
		}
		buf := make([]byte, 64)
		n, _ := p.Read(conn, buf)
		p.Write(conn, []byte("pong:"+string(buf[:n])))
		p.Close(conn)
		return 0
	})
	k.Spawn("client", func(p *Proc) int {
		fd, _ := p.Socket(AFInet, SockStream)
		if e := p.Connect(fd, 8080, ""); e != OK {
			t.Fatalf("connect: %v", e)
		}
		p.Write(fd, []byte("ping"))
		buf := make([]byte, 64)
		n, _ := p.Read(fd, buf)
		if string(buf[:n]) != "pong:ping" {
			t.Fatalf("reply = %q", buf[:n])
		}
		// Connecting to a dead port refuses.
		fd2, _ := p.Socket(AFInet, SockStream)
		if e := p.Connect(fd2, 9999, ""); e != ECONNREFUSED {
			t.Fatalf("connect 9999 = %v", e)
		}
		return 0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUDPSockets(t *testing.T) {
	k := newTestKernel(t, "lupine-base")
	k.Spawn("server", func(p *Proc) int {
		fd, _ := p.Socket(AFInet, SockDgram)
		if e := p.Bind(fd, 5353, ""); e != OK {
			t.Fatalf("bind: %v", e)
		}
		buf := make([]byte, 64)
		n, e := p.Read(fd, buf)
		if e != OK || string(buf[:n]) != "query" {
			t.Fatalf("udp read = %q, %v", buf[:n], e)
		}
		return 0
	})
	k.Spawn("client", func(p *Proc) int {
		fd, _ := p.Socket(AFInet, SockDgram)
		p.Connect(fd, 5353, "")
		if _, e := p.Write(fd, []byte("query")); e != OK {
			t.Fatalf("udp write: %v", e)
		}
		return 0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEpollServerLoop(t *testing.T) {
	k := newTestKernel(t, "lupine-base", "EPOLL")
	k.Spawn("server", func(p *Proc) int {
		lfd, _ := p.Socket(AFInet, SockStream)
		p.Bind(lfd, 80, "")
		p.Listen(lfd)
		epfd, e := p.EpollCreate()
		if e != OK {
			t.Fatalf("epoll_create: %v", e)
		}
		p.EpollCtl(epfd, lfd, true)
		served := 0
		var events []EpollEvent
		for served < 3 {
			events, e = p.EpollWait(epfd, events)
			if e != OK {
				t.Fatalf("epoll_wait: %v", e)
			}
			for _, ev := range events {
				if ev.FD == lfd {
					conn, _ := p.Accept(lfd)
					p.EpollCtl(epfd, conn, true)
				} else {
					buf := make([]byte, 32)
					n, _ := p.Read(ev.FD, buf)
					if n == 0 {
						p.EpollCtl(epfd, ev.FD, false)
						p.Close(ev.FD)
						continue
					}
					p.Write(ev.FD, buf[:n])
					served++
				}
			}
		}
		return 0
	})
	k.Spawn("clients", func(p *Proc) int {
		for i := 0; i < 3; i++ {
			fd, _ := p.Socket(AFInet, SockStream)
			if e := p.Connect(fd, 80, ""); e != OK {
				t.Fatalf("connect %d: %v", i, e)
			}
			p.Write(fd, []byte("hi"))
			buf := make([]byte, 32)
			n, _ := p.Read(fd, buf)
			if string(buf[:n]) != "hi" {
				t.Fatalf("echo = %q", buf[:n])
			}
			p.Close(fd)
		}
		p.Poweroff()
		return 0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFutexWakeup(t *testing.T) {
	k := newTestKernel(t, "lupine-base", "FUTEX")
	var flag int
	k.Spawn("main", func(p *Proc) int {
		waiter := p.CloneThread("waiter", func(w *Proc) int {
			for flag == 0 {
				w.FutexWait(0x1000, func() bool { return flag == 0 })
			}
			return 0
		})
		_ = waiter
		p.Yield() // let the waiter run and park on the futex
		flag = 1
		n, e := p.FutexWake(0x1000, 1)
		if e != OK || n != 1 {
			t.Errorf("futex wake = %d, %v; want 1 waiter woken", n, e)
			return 1
		}
		return 0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestKMLReducesSyscallLatency(t *testing.T) {
	measure := func(profile string) simclock.Duration {
		k := newTestKernel(t, profile)
		var per simclock.Duration
		k.Spawn("bench", func(p *Proc) int {
			start := p.k.Now()
			const iters = 1000
			for i := 0; i < iters; i++ {
				p.Getppid()
			}
			per = p.k.Now().Sub(start) / iters
			return 0
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return per
	}
	nokml := measure("lupine-base")
	kml := measure("lupine-kml")
	imp := 1 - float64(kml)/float64(nokml)
	// §4.5: KML improves null syscall latency by ~40%.
	if imp < 0.30 || imp > 0.50 {
		t.Errorf("KML improvement = %.0f%% (nokml=%v kml=%v), want ~40%%", imp*100, nokml, kml)
	}
}

func TestMitigationsSlowMicroVM(t *testing.T) {
	measure := func(profile string) simclock.Duration {
		k := newTestKernel(t, profile)
		var per simclock.Duration
		k.Spawn("bench", func(p *Proc) int {
			zfd, _ := p.Open("/dev/zero", ORdonly)
			buf := make([]byte, 1)
			start := p.k.Now()
			const iters = 1000
			for i := 0; i < iters; i++ {
				p.Read(zfd, buf)
			}
			per = p.k.Now().Sub(start) / iters
			return 0
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return per
	}
	micro := measure("microvm")
	lupine := measure("lupine-base")
	if micro <= lupine {
		t.Errorf("microVM read latency %v not above lupine %v", micro, lupine)
	}
}

func TestSMPLockOverhead(t *testing.T) {
	// §5: a futex-heavy workload pays up to ~8% for CONFIG_SMP on 1 CPU.
	measure := func(extra ...string) simclock.Time {
		k := newTestKernel(t, "lupine-base", append([]string{"FUTEX"}, extra...)...)
		k.Spawn("main", func(p *Proc) int {
			var done int
			w := p.CloneThread("partner", func(w *Proc) int {
				for done == 0 {
					w.FutexWake(0x2000, 1)
					w.FutexWait(0x3000, nil)
				}
				return 0
			})
			for i := 0; i < 500; i++ {
				p.FutexWait(0x2000, nil)
				p.FutexWake(0x3000, 1)
			}
			done = 1
			p.FutexWake(0x3000, 1)
			_ = w
			p.Poweroff()
			return 0
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return k.Now()
	}
	up := measure()
	smp := measure("SMP")
	overhead := float64(smp)/float64(up) - 1
	if overhead <= 0 || overhead > 0.10 {
		t.Errorf("SMP overhead = %.1f%% (up=%v smp=%v), want (0, 10%%]", overhead*100, up, smp)
	}
}

func TestSMPParallelSpeedup(t *testing.T) {
	// With CONFIG_SMP and 2 VCPUs, CPU-bound work runs ~2x faster
	// (§5: building the kernel with one processor takes almost twice as
	// long as with two).
	elapsed := func(vcpus int, smp bool) simclock.Time {
		profile := "lupine-base"
		var k *Kernel
		if smp {
			k = newTestKernel(t, profile, "SMP")
		} else {
			k = newTestKernel(t, profile)
		}
		img := k.img
		var err error
		k, err = NewKernel(Params{Image: img, VCPUs: vcpus, RootFS: testRootFS()})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			k.Spawn("worker", func(p *Proc) int {
				p.Work(10 * simclock.Millisecond)
				return 0
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return k.Now()
	}
	one := elapsed(1, true)
	two := elapsed(2, true)
	ratio := float64(one) / float64(two)
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("2-CPU speedup = %.2fx, want ~2x", ratio)
	}
	// Without CONFIG_SMP the second VCPU is ignored.
	noSMP := elapsed(2, false)
	if float64(noSMP) < float64(one)*0.95 {
		t.Errorf("non-SMP kernel used the second CPU: %v vs %v", noSMP, one)
	}
}

func TestNanosleepAdvancesTime(t *testing.T) {
	k := newTestKernel(t, "lupine-base")
	k.Spawn("sleeper", func(p *Proc) int {
		p.Nanosleep(5 * simclock.Millisecond)
		return 0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Now() < simclock.Time(5*simclock.Millisecond) {
		t.Errorf("Now = %v, want >= 5ms", k.Now())
	}
}

func TestKillAndSignals(t *testing.T) {
	k := newTestKernel(t, "lupine-base")
	k.Spawn("main", func(p *Proc) int {
		if e := p.RaiseSignal(SIGUSR1); e != EINVAL {
			t.Errorf("raise without a handler = %v, want EINVAL", e)
		}
		if e := p.Sigaction(SIGUSR1); e != OK {
			t.Errorf("sigaction: %v", e)
		}
		if e := p.RaiseSignal(SIGUSR1); e != OK {
			t.Errorf("raise: %v", e)
		}
		if e := p.Sigaction(SIGKILL); e != EINVAL {
			t.Errorf("sigaction SIGKILL = %v", e)
		}
		return 0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestControlProcessesDoNotPerturbLatency(t *testing.T) {
	// Figure 11: sleeping control processes leave syscall latency flat.
	measure := func(nControl int) simclock.Duration {
		k := newTestKernel(t, "lupine-base")
		for i := 0; i < nControl; i++ {
			k.Spawn("control", func(p *Proc) int {
				p.Nanosleep(simclock.Duration(10) * simclock.Second)
				return 0
			})
		}
		var per simclock.Duration
		k.Spawn("bench", func(p *Proc) int {
			start := p.k.Now()
			for i := 0; i < 1000; i++ {
				p.Getppid()
			}
			per = p.k.Now().Sub(start) / 1000
			p.Poweroff()
			return 0
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return per
	}
	base := measure(1)
	many := measure(256)
	if base != many {
		t.Errorf("latency with 256 sleepers %v != baseline %v", many, base)
	}
}

func TestSysvIPC(t *testing.T) {
	k := newTestKernel(t, "lupine-base", "SYSVIPC")
	k.Spawn("pg", func(p *Proc) int {
		a, e := p.SemGet()
		if e != OK {
			t.Fatalf("semget: %v", e)
		}
		if b, e := p.SemGet(); e != OK || b == a {
			t.Errorf("second semget = %d, %v; want OK and an id other than %d", b, e, a)
		}
		return 0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}

	// Without SYSVIPC, postgres-style apps hit ENOSYS.
	k2 := newTestKernel(t, "lupine-base")
	k2.Spawn("pg", func(p *Proc) int {
		if _, e := p.SemGet(); e != ENOSYS {
			t.Errorf("semget = %v, want ENOSYS", e)
		}
		return 1
	})
	if err := k2.Run(); err != nil {
		t.Fatal(err)
	}
	if !k2.ConsoleContains("could not create semaphores") {
		t.Errorf("console = %q", k2.Console())
	}
}
