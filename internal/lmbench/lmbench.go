// Package lmbench reimplements the lmbench microbenchmarks the paper uses
// (Figure 9 and Appendix A, Table 5) against the simulated guest kernel:
// syscall latencies, context switching, local communication latencies,
// file & VM latencies, and bandwidths. Each benchmark is a real loop of
// guest system calls measured in virtual time.
package lmbench

import (
	"fmt"
	"sort"

	"lupine/internal/ext2"
	"lupine/internal/guest"
	"lupine/internal/kbuild"
	"lupine/internal/simclock"
)

// Result is one benchmark row.
type Result struct {
	Name  string
	Value float64
	Unit  string // "us" or "MB/s"
}

func (r Result) String() string { return fmt.Sprintf("%-16s %10.4f %s", r.Name, r.Value, r.Unit) }

// Results maps row name to result.
type Results map[string]Result

// Sorted returns rows sorted by name.
func (rs Results) Sorted() []Result {
	out := make([]Result, 0, len(rs))
	for _, r := range rs {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// iters is the loop count for latency benchmarks; large enough to
// amortize, small enough to stay fast.
const iters = 400

// benchFunc runs inside the guest and returns the measured value.
type benchFunc func(p *guest.Proc) float64

// suite enumerates every Table 5 row in order.
var suite = []struct {
	name string
	unit string
	fn   benchFunc
}{
	// Processor - times in microseconds.
	{"null call", "us", nullCall},
	{"null I/O", "us", nullIO},
	{"stat", "us", statBench},
	{"open clos", "us", openClose},
	{"slct TCP", "us", selectTCP},
	{"sig inst", "us", sigInst},
	{"sig hndl", "us", sigHndl},
	{"fork proc", "us", forkProc},
	{"exec proc", "us", execProc},
	{"sh proc", "us", shProc},
	// Context switching.
	{"2p/0K ctxsw", "us", ctxsw(2, 0)},
	{"2p/16K ctxsw", "us", ctxsw(2, 16)},
	{"2p/64K ctxsw", "us", ctxsw(2, 64)},
	{"8p/16K ctxsw", "us", ctxsw(8, 16)},
	{"8p/64K ctxsw", "us", ctxsw(8, 64)},
	{"16p/16K ctxsw", "us", ctxsw(16, 16)},
	{"16p/64K ctxsw", "us", ctxsw(16, 64)},
	// Local communication latencies.
	{"Pipe lat", "us", pipeLat},
	{"AF UNIX lat", "us", unixLat},
	{"UDP lat", "us", udpLat},
	{"TCP lat", "us", tcpLat},
	{"TCP conn", "us", tcpConn},
	// File & VM latencies.
	{"0K Create", "us", fileCreate(0)},
	{"File Delete", "us", fileDelete(0)},
	{"10K Create", "us", fileCreate(10 * 1024)},
	{"10K Delete", "us", fileDelete(10 * 1024)},
	{"Mmap Latency", "us", mmapLat},
	{"Prot Fault", "us", protFault},
	{"Page Fault", "us", pageFault},
	{"100fd selct", "us", select100},
	// Bandwidths in MB/s.
	{"Pipe bw", "MB/s", pipeBW},
	{"AF UNIX bw", "MB/s", unixBW},
	{"TCP bw", "MB/s", tcpBW},
	{"File reread", "MB/s", fileReread},
	{"Mmap reread", "MB/s", mmapReread},
	{"Bcopy (libc)", "MB/s", bcopyLibc},
	{"Bcopy (hand)", "MB/s", bcopyHand},
	{"Mem read", "MB/s", memRead},
	{"Mem write", "MB/s", memWrite},
}

// RowNames lists the suite's row names in canonical order.
func RowNames() []string {
	out := make([]string, len(suite))
	for i, b := range suite {
		out[i] = b.name
	}
	return out
}

// RunSuite executes the selected rows (nil = all) on a fresh guest built
// from the image. Unikernels that cannot run a given benchmark are
// handled by the libos package, not here.
func RunSuite(img *kbuild.Image, rootfs *ext2.File, names []string) (Results, error) {
	want := make(map[string]bool)
	for _, n := range names {
		want[n] = true
	}
	out := make(Results)
	for _, b := range suite {
		if names != nil && !want[b.name] {
			continue
		}
		k, err := guest.NewKernel(guest.Params{Image: img, RootFS: rootfs})
		if err != nil {
			return nil, err
		}
		b := b
		var value float64
		k.Spawn("lmbench:"+b.name, func(p *guest.Proc) int {
			value = b.fn(p)
			p.Poweroff()
			return 0
		})
		if err := k.Run(); err != nil {
			return nil, fmt.Errorf("lmbench: %s: %w", b.name, err)
		}
		out[b.name] = Result{Name: b.name, Value: value, Unit: b.unit}
	}
	return out, nil
}

// measure times fn over iters runs and reports microseconds per run.
func measure(p *guest.Proc, n int, fn func()) float64 {
	start := p.Kernel().Now()
	for i := 0; i < n; i++ {
		fn()
	}
	elapsed := p.Kernel().Now().Sub(start)
	return elapsed.Microseconds() / float64(n)
}

// bandwidth reports MB/s for moving total bytes in elapsed virtual time.
func bandwidth(p *guest.Proc, bytes int64, fn func()) float64 {
	start := p.Kernel().Now()
	fn()
	elapsed := p.Kernel().Now().Sub(start)
	if elapsed <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / elapsed.Seconds()
}

// --- processor ---

func nullCall(p *guest.Proc) float64 {
	return measure(p, iters, func() { p.Getppid() })
}

func nullIO(p *guest.Proc) float64 {
	zfd, _ := p.Open("/dev/zero", guest.ORdonly)
	nfd, _ := p.Open("/dev/null", guest.OWronly)
	buf := make([]byte, 1)
	r := measure(p, iters, func() { p.Read(zfd, buf) })
	w := measure(p, iters, func() { p.Write(nfd, buf) })
	return (r + w) / 2
}

// ReadLatency and WriteLatency expose the Figure 9 rows individually.
func ReadLatency(p *guest.Proc) float64 {
	zfd, _ := p.Open("/dev/zero", guest.ORdonly)
	buf := make([]byte, 1)
	return measure(p, iters, func() { p.Read(zfd, buf) })
}

// WriteLatency measures write to /dev/null (Figure 9's "write").
func WriteLatency(p *guest.Proc) float64 {
	nfd, _ := p.Open("/dev/null", guest.OWronly)
	buf := make([]byte, 1)
	return measure(p, iters, func() { p.Write(nfd, buf) })
}

func statBench(p *guest.Proc) float64 {
	p.Mkdir("/data/d")
	fd, _ := p.Open("/data/d/f", guest.OWronly|guest.OCreat)
	p.Close(fd)
	return measure(p, iters, func() { p.Stat("/data/d/f") })
}

func openClose(p *guest.Proc) float64 {
	fd, _ := p.Open("/data/oc", guest.OWronly|guest.OCreat)
	p.Close(fd)
	return measure(p, iters, func() {
		fd, _ := p.Open("/data/oc", guest.ORdonly)
		p.Close(fd)
	})
}

func selectTCP(p *guest.Proc) float64 {
	fds := tcpFanIn(p, 200)
	return measure(p, iters, func() { p.Select(fds) })
}

func select100(p *guest.Proc) float64 {
	fds := tcpFanIn(p, 100)
	return measure(p, iters, func() { p.Select(fds) })
}

// tcpFanIn builds n connected TCP sockets served by a child echo process.
func tcpFanIn(p *guest.Proc, n int) []int {
	port := 7100 + n
	lfd, _ := p.Socket(guest.AFInet, guest.SockStream)
	p.Bind(lfd, port, "")
	p.Listen(lfd)
	var fds []int
	for i := 0; i < n; i++ {
		cfd, _ := p.Socket(guest.AFInet, guest.SockStream)
		if e := p.Connect(cfd, port, ""); e != guest.OK {
			break
		}
		sfd, _ := p.Accept(lfd)
		_ = sfd
		fds = append(fds, cfd)
	}
	return fds
}

func sigInst(p *guest.Proc) float64 {
	return measure(p, iters, func() { p.Sigaction(guest.SIGUSR1) })
}

func sigHndl(p *guest.Proc) float64 {
	p.Sigaction(guest.SIGUSR1)
	return measure(p, iters, func() { p.RaiseSignal(guest.SIGUSR1) })
}

func forkProc(p *guest.Proc) float64 {
	return measure(p, 40, func() {
		p.Fork(func(c *guest.Proc) int { return 0 })
		p.Wait()
	})
}

func execProc(p *guest.Proc) float64 {
	return measure(p, 40, func() {
		p.Fork(func(c *guest.Proc) int {
			return int(c.Execve("/bin/lat-prog"))
		})
		p.Wait()
	})
}

func shProc(p *guest.Proc) float64 {
	return measure(p, 40, func() {
		p.Fork(func(c *guest.Proc) int {
			// /bin/sh -c prog: exec the shell, shell parses, execs prog.
			if e := c.Execve("/bin/sh"); e != guest.OK {
				return 1
			}
			c.Work(180 * simclock.Microsecond) // shell startup + parse
			return int(c.Execve("/bin/lat-prog"))
		})
		p.Wait()
	})
}

// --- context switching ---

// ctxsw builds lmbench's lat_ctx: nproc processes in a ring pass a token
// through pipes, each touching wsKB of data per hop.
func ctxsw(nproc, wsKB int) benchFunc {
	return func(p *guest.Proc) float64 {
		const rounds = 60
		// Ring of pipes: proc i reads from r[i], writes to w[(i+1)%n].
		var rs, ws []int
		for i := 0; i < nproc; i++ {
			r, w, _ := p.Pipe()
			rs = append(rs, r)
			ws = append(ws, w)
		}
		p.SetWorkingSet(wsKB)
		done := make([]bool, nproc)
		for i := 1; i < nproc; i++ {
			i := i
			p.Fork(func(c *guest.Proc) int {
				c.SetWorkingSet(wsKB)
				buf := make([]byte, 1)
				for {
					n, _ := c.Read(rs[i], buf)
					if n == 0 {
						return 0
					}
					c.Write(ws[(i+1)%nproc], buf)
				}
			})
			done[i] = true
		}
		buf := make([]byte, 1)
		start := p.Kernel().Now()
		for r := 0; r < rounds; r++ {
			p.Write(ws[1%nproc], buf)
			p.Read(rs[0], buf)
		}
		elapsed := p.Kernel().Now().Sub(start)
		// Each round is nproc hops; lmbench reports the per-switch cost
		// net of the pipe overhead, which it measures separately — we
		// subtract the same baseline.
		switches := rounds * nproc
		perHop := elapsed.Microseconds() / float64(switches)
		pipeCost := pipeOverhead(p)
		v := perHop - pipeCost
		if v < 0 {
			v = 0
		}
		return v
	}
}

// pipeOverhead measures the non-switching cost of one pipe write+read in
// microseconds (both ends in one process, no blocking).
func pipeOverhead(p *guest.Proc) float64 {
	r, w, _ := p.Pipe()
	buf := make([]byte, 1)
	return measure(p, iters, func() {
		p.Write(w, buf)
		p.Read(r, buf)
	})
}

// --- local communication latencies ---

// pingPong measures one-way latency between two processes over the given
// transport setup.
func pingPong(p *guest.Proc, afd, bfd int) float64 {
	const rounds = 150
	p.Fork(func(c *guest.Proc) int {
		buf := make([]byte, 64)
		for {
			n, _ := c.Read(afd, buf)
			if n == 0 {
				return 0
			}
			c.Write(afd, buf[:n])
		}
	})
	buf := make([]byte, 64)
	msg := []byte("x")
	start := p.Kernel().Now()
	for i := 0; i < rounds; i++ {
		p.Write(bfd, msg)
		p.Read(bfd, buf)
	}
	elapsed := p.Kernel().Now().Sub(start)
	return elapsed.Microseconds() / float64(rounds) / 2 // one-way
}

func pipeLat(p *guest.Proc) float64 {
	// Two pipes form the bidirectional channel.
	r1, w1, _ := p.Pipe()
	r2, w2, _ := p.Pipe()
	const rounds = 150
	p.Fork(func(c *guest.Proc) int {
		buf := make([]byte, 64)
		for {
			n, _ := c.Read(r1, buf)
			if n == 0 {
				return 0
			}
			c.Write(w2, buf[:n])
		}
	})
	buf := make([]byte, 64)
	msg := []byte("x")
	start := p.Kernel().Now()
	for i := 0; i < rounds; i++ {
		p.Write(w1, msg)
		p.Read(r2, buf)
	}
	elapsed := p.Kernel().Now().Sub(start)
	return elapsed.Microseconds() / float64(rounds) / 2
}

func unixLat(p *guest.Proc) float64 {
	a, b, e := p.SocketPair()
	if e != guest.OK {
		return 0
	}
	return pingPong(p, a, b)
}

func udpLat(p *guest.Proc) float64 {
	const rounds = 150
	srv, _ := p.Socket(guest.AFInet, guest.SockDgram)
	p.Bind(srv, 9001, "")
	cli, _ := p.Socket(guest.AFInet, guest.SockDgram)
	p.Connect(cli, 9001, "")
	cliAddr, _ := p.Socket(guest.AFInet, guest.SockDgram)
	p.Bind(cliAddr, 9002, "")
	p.Fork(func(c *guest.Proc) int {
		buf := make([]byte, 64)
		reply, _ := c.Socket(guest.AFInet, guest.SockDgram)
		c.Connect(reply, 9002, "")
		for {
			n, e := c.Read(srv, buf)
			if e != guest.OK || n == 0 {
				return 0
			}
			c.Write(reply, buf[:n])
		}
	})
	buf := make([]byte, 64)
	msg := []byte("ping")
	start := p.Kernel().Now()
	for i := 0; i < rounds; i++ {
		p.Write(cli, msg)
		p.Read(cliAddr, buf)
	}
	elapsed := p.Kernel().Now().Sub(start)
	// Close the server socket so the child unblocks and exits.
	p.Close(srv)
	return elapsed.Microseconds() / float64(rounds) / 2
}

func tcpLat(p *guest.Proc) float64 {
	lfd, _ := p.Socket(guest.AFInet, guest.SockStream)
	p.Bind(lfd, 9003, "")
	p.Listen(lfd)
	p.Fork(func(c *guest.Proc) int {
		conn, e := c.Accept(lfd)
		if e != guest.OK {
			return 1
		}
		buf := make([]byte, 64)
		for {
			n, _ := c.Read(conn, buf)
			if n == 0 {
				return 0
			}
			c.Write(conn, buf[:n])
		}
	})
	cfd, _ := p.Socket(guest.AFInet, guest.SockStream)
	if e := p.Connect(cfd, 9003, ""); e != guest.OK {
		return 0
	}
	return pingPong2(p, cfd)
}

// pingPong2 is pingPong over an already-connected bidirectional fd with
// the echo server already running.
func pingPong2(p *guest.Proc, fd int) float64 {
	const rounds = 150
	buf := make([]byte, 64)
	msg := []byte("x")
	start := p.Kernel().Now()
	for i := 0; i < rounds; i++ {
		p.Write(fd, msg)
		p.Read(fd, buf)
	}
	elapsed := p.Kernel().Now().Sub(start)
	p.Close(fd)
	return elapsed.Microseconds() / float64(rounds) / 2
}

func tcpConn(p *guest.Proc) float64 {
	lfd, _ := p.Socket(guest.AFInet, guest.SockStream)
	p.Bind(lfd, 9004, "")
	p.Listen(lfd)
	return measure(p, 100, func() {
		cfd, _ := p.Socket(guest.AFInet, guest.SockStream)
		p.Connect(cfd, 9004, "")
		sfd, _ := p.Accept(lfd)
		p.Close(sfd)
		p.Close(cfd)
	})
}

// --- file & VM ---

func fileCreate(size int) benchFunc {
	return func(p *guest.Proc) float64 {
		payload := make([]byte, size)
		i := 0
		return measure(p, iters, func() {
			name := fmt.Sprintf("/data/c%04d", i)
			i++
			fd, _ := p.Open(name, guest.OWronly|guest.OCreat)
			if size > 0 {
				p.Write(fd, payload)
			}
			p.Close(fd)
		})
	}
}

func fileDelete(size int) benchFunc {
	return func(p *guest.Proc) float64 {
		payload := make([]byte, size)
		const n = iters
		for i := 0; i < n; i++ {
			fd, _ := p.Open(fmt.Sprintf("/data/d%04d", i), guest.OWronly|guest.OCreat)
			if size > 0 {
				p.Write(fd, payload)
			}
			p.Close(fd)
		}
		i := 0
		return measure(p, n, func() {
			p.Unlink(fmt.Sprintf("/data/d%04d", i))
			i++
		})
	}
}

func mmapLat(p *guest.Proc) float64 {
	return measure(p, 20, func() { p.MmapFile(8 << 20) })
}

func protFault(p *guest.Proc) float64 {
	return measure(p, iters, func() { p.ProtFault() })
}

func pageFault(p *guest.Proc) float64 {
	return measure(p, iters, func() { p.PageFault() })
}

// --- bandwidths ---

const bwBytes = 4 << 20

func pipeBW(p *guest.Proc) float64 {
	r, w, _ := p.Pipe()
	chunk := make([]byte, 32*1024)
	p.Fork(func(c *guest.Proc) int {
		buf := make([]byte, 32*1024)
		for {
			n, _ := c.Read(r, buf)
			if n == 0 {
				return 0
			}
		}
	})
	return bandwidth(p, bwBytes, func() {
		for sent := 0; sent < bwBytes; sent += len(chunk) {
			p.Write(w, chunk)
		}
		p.Close(w)
	})
}

func unixBW(p *guest.Proc) float64 {
	a, b, e := p.SocketPair()
	if e != guest.OK {
		return 0
	}
	chunk := make([]byte, 32*1024)
	p.Fork(func(c *guest.Proc) int {
		buf := make([]byte, 32*1024)
		for {
			n, _ := c.Read(a, buf)
			if n == 0 {
				return 0
			}
		}
	})
	return bandwidth(p, bwBytes, func() {
		for sent := 0; sent < bwBytes; sent += len(chunk) {
			p.Write(b, chunk)
		}
		p.Close(b)
	})
}

func tcpBW(p *guest.Proc) float64 {
	lfd, _ := p.Socket(guest.AFInet, guest.SockStream)
	p.Bind(lfd, 9005, "")
	p.Listen(lfd)
	p.Fork(func(c *guest.Proc) int {
		conn, e := c.Accept(lfd)
		if e != guest.OK {
			return 1
		}
		buf := make([]byte, 32*1024)
		for {
			n, _ := c.Read(conn, buf)
			if n == 0 {
				return 0
			}
		}
	})
	cfd, _ := p.Socket(guest.AFInet, guest.SockStream)
	if e := p.Connect(cfd, 9005, ""); e != guest.OK {
		return 0
	}
	chunk := make([]byte, 32*1024)
	return bandwidth(p, bwBytes, func() {
		for sent := 0; sent < bwBytes; sent += len(chunk) {
			p.Write(cfd, chunk)
		}
		p.Close(cfd)
	})
}

func fileReread(p *guest.Proc) float64 {
	fd, _ := p.Open("/data/big", guest.OWronly|guest.OCreat)
	chunk := make([]byte, 64*1024)
	for i := 0; i < 16; i++ {
		p.Write(fd, chunk)
	}
	p.Close(fd)
	total := int64(16 * len(chunk))
	return bandwidth(p, total*4, func() {
		for pass := 0; pass < 4; pass++ {
			fd, _ := p.Open("/data/big", guest.ORdonly)
			buf := make([]byte, 64*1024)
			for {
				n, _ := p.Read(fd, buf)
				if n == 0 {
					break
				}
			}
			p.Close(fd)
		}
	})
}

func mmapReread(p *guest.Proc) float64 {
	// Mapped rereads skip the syscall + copy path: pure memory speed.
	return memStream(p, 65*1024)
}

func bcopyLibc(p *guest.Proc) float64 { return memStream(p, 82*1024) }

func bcopyHand(p *guest.Proc) float64 { return memStream(p, 114*1024) }

func memRead(p *guest.Proc) float64 { return memStream(p, 68*1024) }

func memWrite(p *guest.Proc) float64 { return memStream(p, 85*1024) }

// memStream models a pure user-space memory loop: nsPerMB virtual
// nanoseconds per megabyte moved, independent of kernel configuration
// (Table 5 shows identical numbers for both systems on these rows).
func memStream(p *guest.Proc, nsPerMB int64) float64 {
	const totalMB = 64
	start := p.Kernel().Now()
	p.Work(simclock.Duration(totalMB*nsPerMB) * simclock.Nanosecond)
	elapsed := p.Kernel().Now().Sub(start)
	return float64(totalMB) / elapsed.Seconds()
}

// BenchRootFS returns the root filesystem the suite expects: /data for
// scratch files, /bin/sh and /bin/lat-prog for the process benchmarks.
func BenchRootFS() *ext2.File {
	return ext2.NewDir("",
		ext2.NewDir("bin",
			ext2.NewFile("sh", 0o755, []byte("\x7fELF sh")),
			ext2.NewFile("lat-prog", 0o755, []byte("\x7fELF lat")),
		),
		ext2.NewDir("data"),
		ext2.NewDir("tmp"),
	)
}
