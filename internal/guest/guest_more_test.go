package guest

import (
	"strings"
	"testing"
	"testing/quick"

	"lupine/internal/simclock"
)

// run spawns fn as the only process and runs the kernel to completion.
func run(t *testing.T, k *Kernel, fn AppFunc) {
	t.Helper()
	k.Spawn("test", fn)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPipeEOFAndEPIPE(t *testing.T) {
	k := newTestKernel(t, "lupine-base")
	run(t, k, func(p *Proc) int {
		// EOF: close the write end, read drains then returns 0.
		r, w, _ := p.Pipe()
		p.Write(w, []byte("tail"))
		p.Close(w)
		buf := make([]byte, 16)
		n, e := p.Read(r, buf)
		if e != OK || string(buf[:n]) != "tail" {
			t.Errorf("read before EOF = %q, %v", buf[:n], e)
		}
		n, e = p.Read(r, buf)
		if e != OK || n != 0 {
			t.Errorf("EOF read = %d, %v", n, e)
		}
		// EPIPE: close the read end, write fails.
		r2, w2, _ := p.Pipe()
		p.Close(r2)
		if _, e := p.Write(w2, []byte("x")); e != EPIPE {
			t.Errorf("write to closed pipe = %v, want EPIPE", e)
		}
		return 0
	})
}

func TestOpenFlagsAppendTrunc(t *testing.T) {
	k := newTestKernel(t, "lupine-base")
	run(t, k, func(p *Proc) int {
		fd, _ := p.Open("/data/log", OWronly|OCreat)
		p.Write(fd, []byte("one"))
		p.Close(fd)
		// O_APPEND starts at the end.
		fd, _ = p.Open("/data/log", OWronly|OAppend)
		p.Write(fd, []byte("two"))
		p.Close(fd)
		st, _ := p.Stat("/data/log")
		if st.Size != 6 {
			t.Errorf("append size = %d, want 6", st.Size)
		}
		// O_TRUNC resets.
		fd, _ = p.Open("/data/log", OWronly|OTrunc)
		p.Close(fd)
		st, _ = p.Stat("/data/log")
		if st.Size != 0 {
			t.Errorf("trunc size = %d, want 0", st.Size)
		}
		return 0
	})
}

func TestVFSDirectoryOps(t *testing.T) {
	k := newTestKernel(t, "lupine-base")
	run(t, k, func(p *Proc) int {
		if e := p.Mkdir("/data/sub"); e != OK {
			t.Fatalf("mkdir: %v", e)
		}
		if e := p.Mkdir("/data/sub"); e != EEXIST {
			t.Errorf("mkdir twice = %v", e)
		}
		fd, _ := p.Open("/data/sub/f", OWronly|OCreat)
		p.Close(fd)
		if e := p.Unlink("/data/sub"); e != ENOTEMPTY {
			t.Errorf("unlink non-empty dir = %v", e)
		}
		if st, e := p.Stat("/data/sub/f"); e != OK || st.Dir {
			t.Errorf("stat created file = %+v, %v", st, e)
		}
		p.Unlink("/data/sub/f")
		if _, e := p.Stat("/data/sub/f"); e != ENOENT {
			t.Errorf("stat unlinked file = %v", e)
		}
		if e := p.Unlink("/data/sub"); e != OK {
			t.Errorf("unlink empty dir = %v", e)
		}
		if _, e := p.Stat("/etc/hostname/x"); e != ENOTDIR {
			t.Errorf("path through a file = %v", e)
		}
		if _, e := p.Open("/no/such/place", OWronly|OCreat); e != ENOENT {
			t.Errorf("create under missing dir = %v", e)
		}
		return 0
	})
}

func TestSymlinkResolutionInGuest(t *testing.T) {
	k := newTestKernel(t, "lupine-base")
	// testRootFS has /bin/hello; add a symlink chain via syscalls is not
	// supported, so resolve the baked-in /bin entries instead.
	run(t, k, func(p *Proc) int {
		// Exec through parent-relative path normalization.
		if e := p.Execve("/bin/../bin/app"); e != OK {
			t.Errorf("exec with .. = %v", e)
		}
		return 0
	})
}

func TestBindConflicts(t *testing.T) {
	k := newTestKernel(t, "lupine-base")
	run(t, k, func(p *Proc) int {
		a, _ := p.Socket(AFInet, SockDgram)
		if e := p.Bind(a, 5000, ""); e != OK {
			t.Fatalf("bind: %v", e)
		}
		b, _ := p.Socket(AFInet, SockDgram)
		if e := p.Bind(b, 5000, ""); e != EADDRINUSE {
			t.Errorf("second bind = %v, want EADDRINUSE", e)
		}
		// Closing releases the port.
		p.Close(a)
		if e := p.Bind(b, 5000, ""); e != OK {
			t.Errorf("rebind after close = %v", e)
		}
		return 0
	})
}

func TestMemoryAccounting(t *testing.T) {
	img := buildImage(t, "lupine-base")
	k, err := NewKernel(Params{Image: img, Memory: 128 * MiB, RootFS: testRootFS()})
	if err != nil {
		t.Fatal(err)
	}
	run(t, k, func(p *Proc) int {
		before := p.Kernel().MemUsed()
		if e := p.Alloc(8 * MiB); e != OK {
			t.Fatalf("alloc: %v", e)
		}
		if got := p.Kernel().MemUsed() - before; got != 8*MiB {
			t.Errorf("alloc accounted %d bytes, want 8 MiB", got)
		}
		if p.Resident() < 8*MiB {
			t.Errorf("resident = %d", p.Resident())
		}
		p.FreeMem(8 * MiB)
		if got := p.Kernel().MemUsed(); got != before {
			t.Errorf("free did not return memory: %d vs %d", got, before)
		}
		// Reserved mappings cost nothing until touched (§4.4 laziness).
		if e := p.Mmap(64 * MiB); e != OK {
			t.Fatalf("mmap: %v", e)
		}
		if got := p.Kernel().MemUsed(); got != before {
			t.Errorf("lazy mmap consumed memory: %d vs %d", got, before)
		}
		return 0
	})
	if k.MemPeak() <= img.Size {
		t.Error("peak not above kernel static size")
	}
}

func TestThreadSharesMemoryForkDoesNot(t *testing.T) {
	k := newTestKernel(t, "lupine-base")
	run(t, k, func(p *Proc) int {
		used := p.Kernel().MemUsed()
		th := p.CloneThread("t", func(c *Proc) int {
			c.Nanosleep(simclock.Millisecond)
			return 0
		})
		thCost := p.Kernel().MemUsed() - used
		if thCost != 0 {
			t.Errorf("thread creation cost %d bytes of AS, want 0 (shared)", thCost)
		}
		ch, _ := p.Fork(func(c *Proc) int { return 0 })
		forkCost := p.Kernel().MemUsed() - used
		if forkCost <= 0 {
			t.Errorf("fork cost %d bytes, want stack+tables", forkCost)
		}
		_ = th
		_ = ch
		p.Wait()
		p.Wait()
		return 0
	})
}

func TestOrphanReparenting(t *testing.T) {
	k := newTestKernel(t, "lupine-base")
	run(t, k, func(p *Proc) int {
		var grandchild *Proc
		child, _ := p.Fork(func(c *Proc) int {
			grandchild, _ = c.Fork(func(g *Proc) int {
				g.Nanosleep(2 * simclock.Millisecond)
				return 0
			})
			return 0 // dies before the grandchild
		})
		p.Wait()
		_ = child
		p.Nanosleep(5 * simclock.Millisecond)
		if grandchild.ppid != 1 {
			t.Errorf("orphan ppid = %d, want 1 (init)", grandchild.ppid)
		}
		return 0
	})
}

func TestFlockContention(t *testing.T) {
	k := newTestKernel(t, "lupine-base", "FILE_LOCKING")
	run(t, k, func(p *Proc) int {
		fd, _ := p.Open("/data/lockfile", OWronly|OCreat)
		if e := p.Flock(fd, true); e != OK {
			t.Fatalf("flock: %v", e)
		}
		done := make(chan Errno, 1)
		ch, _ := p.Fork(func(c *Proc) int {
			cfd, _ := c.Open("/data/lockfile", OWronly)
			done <- c.Flock(cfd, true)
			return 0
		})
		_ = ch
		p.Wait()
		if e := <-done; e != EAGAIN {
			t.Errorf("contended flock = %v, want EAGAIN", e)
		}
		if e := p.Flock(fd, false); e != OK {
			t.Errorf("unlock: %v", e)
		}
		return 0
	})
}

func TestProcfsDynamicContent(t *testing.T) {
	k := newTestKernel(t, "lupine-base", "PROC_FS")
	run(t, k, func(p *Proc) int {
		p.Mount("proc", "/proc")
		read := func(path string) string {
			fd, e := p.Open(path, ORdonly)
			if e != OK {
				t.Fatalf("open %s: %v", path, e)
			}
			defer p.Close(fd)
			buf := make([]byte, 512)
			n, _ := p.Read(fd, buf)
			return string(buf[:n])
		}
		if !strings.Contains(read("/proc/cpuinfo"), "Lupine vCPU") {
			t.Error("cpuinfo wrong")
		}
		if !strings.Contains(read("/proc/meminfo"), "MemFree") {
			t.Error("meminfo wrong")
		}
		if !strings.Contains(read("/proc/uptime"), ".") {
			t.Error("uptime wrong")
		}
		// procfs rejects writes and creation.
		if _, e := p.Open("/proc/newfile", OWronly|OCreat); e != EACCES {
			t.Errorf("create in proc = %v, want EACCES", e)
		}
		return 0
	})
}

func TestSysctlValues(t *testing.T) {
	k := newTestKernel(t, "lupine-base", "SYSCTL")
	run(t, k, func(p *Proc) int {
		v, e := p.Sysctl("kernel.ostype")
		if e != OK || v != "Linux" {
			t.Errorf("ostype = %q, %v", v, e)
		}
		if _, e := p.Sysctl("kernel.bogus"); e != ENOENT {
			t.Errorf("bogus sysctl = %v", e)
		}
		return 0
	})
}

func TestYieldRoundRobin(t *testing.T) {
	k := newTestKernel(t, "lupine-base")
	var order []int
	k.Spawn("a", func(p *Proc) int {
		for i := 0; i < 3; i++ {
			order = append(order, 1)
			p.Yield()
		}
		return 0
	})
	k.Spawn("b", func(p *Proc) int {
		for i := 0; i < 3; i++ {
			order = append(order, 2)
			p.Yield()
		}
		return 0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 1, 2, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("schedule order = %v, want %v", order, want)
		}
	}
}

func TestVirtualTimeGuard(t *testing.T) {
	img := buildImage(t, "lupine-base")
	k, err := NewKernel(Params{
		Image: img, RootFS: testRootFS(),
		MaxVirtualTime: 10 * simclock.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Spawn("spinner", func(p *Proc) int {
		for {
			p.Work(simclock.Millisecond)
			p.Yield()
		}
	})
	if err := k.Run(); err == nil || !strings.Contains(err.Error(), "guard") {
		t.Fatalf("err = %v, want virtual time guard", err)
	}
}

// Property: runs are bit-for-bit deterministic across arbitrary workload
// scripts drawn from a small op alphabet.
func TestDeterminismProperty(t *testing.T) {
	type result struct {
		now     simclock.Time
		console string
	}
	execute := func(script []byte) result {
		k := newTestKernel(t, "lupine-base", "FUTEX", "UNIX", "EPOLL")
		k.Spawn("scripted", func(p *Proc) int {
			r, w, _ := p.Pipe()
			written, read := 0, 0
			for _, op := range script {
				switch op % 6 {
				case 0:
					p.Getppid()
				case 1:
					p.Write(w, []byte{op})
					written++
				case 2:
					// Read only what was written, so the read never blocks.
					if written > read {
						p.Read(r, make([]byte, 1))
						read++
					}
				case 3:
					p.Fork(func(c *Proc) int {
						c.Work(simclock.Duration(op) * simclock.Microsecond)
						return 0
					})
				case 4:
					p.Nanosleep(simclock.Duration(op) * simclock.Microsecond)
				case 5:
					p.Printf("op %d\n", op)
				}
			}
			for {
				if _, _, e := p.Wait(); e != OK {
					break
				}
			}
			return 0
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return result{k.Now(), k.Console()}
	}
	f := func(script []byte) bool {
		if len(script) > 40 {
			script = script[:40]
		}
		a := execute(script)
		b := execute(script)
		return a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: charging work never moves any CPU clock backwards, regardless
// of the blocking pattern.
func TestMonotonicTimeProperty(t *testing.T) {
	f := func(delays []uint8) bool {
		k := newTestKernel(t, "lupine-base")
		ok := true
		var last simclock.Time
		k.Spawn("m", func(p *Proc) int {
			for _, d := range delays {
				if d%2 == 0 {
					p.Work(simclock.Duration(d) * simclock.Microsecond)
				} else {
					p.Nanosleep(simclock.Duration(d) * simclock.Microsecond)
				}
				now := p.Kernel().Now()
				if now < last {
					ok = false
				}
				last = now
			}
			return 0
		})
		if err := k.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConsoleOrdering(t *testing.T) {
	k := newTestKernel(t, "lupine-base")
	run(t, k, func(p *Proc) int {
		p.Println("first")
		ch, _ := p.Fork(func(c *Proc) int {
			c.Println("second")
			return 0
		})
		_ = ch
		p.Wait()
		p.Println("third")
		return 0
	})
	out := k.Console()
	if !(strings.Index(out, "first") < strings.Index(out, "second") &&
		strings.Index(out, "second") < strings.Index(out, "third")) {
		t.Errorf("console order wrong: %q", out)
	}
}

func TestForkOOMKillsChild(t *testing.T) {
	img := buildImage(t, "lupine-base")
	k, err := NewKernel(Params{Image: img, Memory: 21 * MiB, RootFS: testRootFS()})
	if err != nil {
		t.Fatal(err)
	}
	run(t, k, func(p *Proc) int {
		// Exhaust memory (finer than the child's 144 KiB stack+tables),
		// then fork: the child gets OOM-killed at start.
		for p.Alloc(64*1024) == OK {
		}
		child, e := p.Fork(func(c *Proc) int { return 0 })
		if e != OK {
			t.Fatalf("fork errno = %v", e)
		}
		pid, status, e := p.Wait()
		if e != OK || pid != child.PID() || status != 137 {
			t.Errorf("wait = %d, %d, %v; want OOM kill 137", pid, status, e)
		}
		return 0
	})
	if !k.ConsoleContains("Out of memory: Killed process") {
		t.Errorf("console = %q", k.Console())
	}
}

func TestUnixListenerSockets(t *testing.T) {
	// postgres-style UNIX domain listener bound to a filesystem path.
	k := newTestKernel(t, "lupine-base", "UNIX")
	k.Spawn("server", func(p *Proc) int {
		lfd, e := p.Socket(AFUnix, SockStream)
		if e != OK {
			t.Errorf("socket: %v", e)
			return 1
		}
		if e := p.Bind(lfd, 0, "/tmp/.s.PGSQL.5432"); e != OK {
			t.Errorf("bind: %v", e)
			return 1
		}
		if e := p.Listen(lfd); e != OK {
			t.Errorf("listen: %v", e)
			return 1
		}
		conn, e := p.Accept(lfd)
		if e != OK {
			t.Errorf("accept: %v", e)
			return 1
		}
		buf := make([]byte, 32)
		n, _ := p.Read(conn, buf)
		p.Write(conn, append([]byte("pg:"), buf[:n]...))
		return 0
	})
	k.Spawn("client", func(p *Proc) int {
		fd, _ := p.Socket(AFUnix, SockStream)
		if e := p.Connect(fd, 0, "/tmp/.s.PGSQL.5432"); e != OK {
			t.Errorf("connect: %v", e)
			return 1
		}
		p.Write(fd, []byte("startup"))
		buf := make([]byte, 32)
		n, _ := p.Read(fd, buf)
		if string(buf[:n]) != "pg:startup" {
			t.Errorf("reply = %q", buf[:n])
		}
		// A path nobody listens on refuses.
		fd2, _ := p.Socket(AFUnix, SockStream)
		if e := p.Connect(fd2, 0, "/tmp/nope"); e != ECONNREFUSED {
			t.Errorf("connect to dead path = %v", e)
		}
		return 0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestKernelStats(t *testing.T) {
	k := newTestKernel(t, "lupine-base")
	run(t, k, func(p *Proc) int {
		for i := 0; i < 10; i++ {
			p.Getppid()
		}
		ch, _ := p.Fork(func(c *Proc) int {
			c.Alloc(64 * 1024)
			return 0
		})
		_ = ch
		p.Wait()
		p.Nanosleep(simclock.Millisecond)
		return 0
	})
	s := k.Stats()
	if s.Syscalls < 12 {
		t.Errorf("syscalls = %d, want >= 12", s.Syscalls)
	}
	if s.ProcsCreated != 2 {
		t.Errorf("procs = %d, want 2", s.ProcsCreated)
	}
	if s.ContextSwitch < 1 {
		t.Errorf("ctxt = %d, want >= 1", s.ContextSwitch)
	}
	if s.TimersFired < 1 {
		t.Errorf("timers = %d, want >= 1", s.TimersFired)
	}
	if s.PageFaultPages < 16 {
		t.Errorf("pages = %d, want >= 16 (64 KiB alloc)", s.PageFaultPages)
	}
	if s.String() == "" {
		t.Error("empty stats rendering")
	}
}

func TestProcStatCounters(t *testing.T) {
	k := newTestKernel(t, "lupine-base", "PROC_FS")
	run(t, k, func(p *Proc) int {
		p.Mount("proc", "/proc")
		p.Getppid()
		fd, e := p.Open("/proc/stat", ORdonly)
		if e != OK {
			t.Fatalf("open: %v", e)
		}
		buf := make([]byte, 256)
		n, _ := p.Read(fd, buf)
		out := string(buf[:n])
		if !strings.Contains(out, "ctxt ") || !strings.Contains(out, "syscalls ") {
			t.Errorf("/proc/stat = %q", out)
		}
		return 0
	})
}

// The whole point of KML: identical workloads issue identical syscall
// counts; only the per-entry price differs.
func TestKMLDoesNotChangeSyscallCounts(t *testing.T) {
	count := func(profile string) int64 {
		k := newTestKernel(t, profile)
		run(t, k, func(p *Proc) int {
			for i := 0; i < 50; i++ {
				p.Getppid()
			}
			fd, _ := p.Open("/etc/hostname", ORdonly)
			p.Read(fd, make([]byte, 8))
			p.Close(fd)
			return 0
		})
		return k.Stats().Syscalls
	}
	a := count("lupine-base")
	b := count("lupine-kml")
	if a != b {
		t.Errorf("syscall counts differ: nokml %d vs kml %d — §3.2 says kernel paths are identical", a, b)
	}
}

// Property: stream sockets preserve byte order and total counts under
// arbitrary write-size sequences (FIFO integrity through the quiet-pipe
// plumbing and chunked reads).
func TestSocketFIFOIntegrityProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		if len(sizes) > 24 {
			sizes = sizes[:24]
		}
		var want []byte
		seq := byte(0)
		chunks := make([][]byte, 0, len(sizes))
		for _, s := range sizes {
			n := int(s%200) + 1
			chunk := make([]byte, n)
			for i := range chunk {
				chunk[i] = seq
				seq++
			}
			chunks = append(chunks, chunk)
			want = append(want, chunk...)
		}
		k := newTestKernel(t, "lupine-base", "UNIX")
		var got []byte
		k.Spawn("main", func(p *Proc) int {
			a, b, e := p.SocketPair()
			if e != OK {
				return 1
			}
			p.Fork(func(c *Proc) int {
				// Classic fork discipline: drop the inherited write end
				// so the parent's close actually delivers EOF.
				c.Close(b)
				buf := make([]byte, 97) // odd size to force re-chunking
				for {
					n, _ := c.Read(a, buf)
					if n == 0 {
						return 0
					}
					got = append(got, buf[:n]...)
				}
			})
			p.Close(a)
			for _, chunk := range chunks {
				if _, e := p.Write(b, chunk); e != OK {
					return 1
				}
			}
			p.Close(b)
			p.Wait()
			return 0
		})
		if err := k.Run(); err != nil {
			return false
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
