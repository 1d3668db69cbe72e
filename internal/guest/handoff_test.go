package guest

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"lupine/internal/simclock"
)

// TestPipePingPongAllocations pins the context-switch path at zero
// allocations: one pipe round trip between two processes is two
// blocks, two wakes and two handoffs, and none of them allocates. The
// marginal cost is measured as the difference between runs of two
// sizes, so the kernel, its processes and their pipes drop out.
func TestPipePingPongAllocations(t *testing.T) {
	img := buildImage(t, "lupine-base")
	pingPong := func(rounds int) float64 {
		return testing.AllocsPerRun(5, func() {
			k, err := NewKernel(Params{Image: img, RootFS: testRootFS()})
			if err != nil {
				t.Fatal(err)
			}
			k.Spawn("ping", func(p *Proc) int {
				r1, w1, _ := p.Pipe()
				r2, w2, _ := p.Pipe()
				p.Fork(func(c *Proc) int {
					buf := make([]byte, 1)
					for {
						if n, _ := c.Read(r1, buf); n == 0 {
							return 0
						}
						c.Write(w2, buf)
					}
				})
				buf := make([]byte, 1)
				for i := 0; i < rounds; i++ {
					p.Write(w1, buf)
					p.Read(r2, buf)
				}
				p.Poweroff()
				return 0
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	const small, large = 100, 1100
	a, b := pingPong(small), pingPong(large)
	if per := (b - a) / (large - small); per > 0.01 {
		t.Fatalf("%.3f allocations per pipe round trip (%v for %d rounds, %v for %d), want 0",
			per, a, small, b, large)
	}
}

// TestRunLeavesNoGoroutines: whichever process ends a run, and however
// it ends, every process goroutine is gone once Run returns.
func TestRunLeavesNoGoroutines(t *testing.T) {
	blockForever := func(p *Proc) int {
		r, _, _ := p.Pipe() // this process holds the only write end
		p.Read(r, make([]byte, 1))
		return 0
	}
	cases := []struct {
		name    string
		options []string
		params  func(*Params)
		spawn   func(k *Kernel)
		wantErr string
	}{
		{
			name: "poweroff with processes blocked",
			spawn: func(k *Kernel) {
				k.Spawn("blocked-a", blockForever)
				k.Spawn("blocked-b", blockForever)
				k.Spawn("off", func(p *Proc) int {
					p.Yield()
					p.Poweroff()
					return 0
				})
			},
		},
		{
			name: "deadlock",
			spawn: func(k *Kernel) {
				k.Spawn("blocked-a", blockForever)
				k.Spawn("blocked-b", blockForever)
			},
			wantErr: "deadlock",
		},
		{
			// The kill that ends the run unwinds the deferred Poweroff,
			// which must not charge the CPU the parked process lacks.
			name: "deadlock with a deferred poweroff",
			spawn: func(k *Kernel) {
				k.Spawn("blocked", func(p *Proc) int {
					defer p.Poweroff()
					return blockForever(p)
				})
			},
			wantErr: "deadlock",
		},
		{
			name:   "virtual-time guard",
			params: func(p *Params) { p.MaxVirtualTime = simclock.Millisecond },
			spawn: func(k *Kernel) {
				k.Spawn("spinner", func(p *Proc) int {
					for {
						p.Work(100 * simclock.Microsecond)
						p.Yield()
					}
				})
				k.Spawn("sleeper", func(p *Proc) int {
					p.Nanosleep(simclock.Second)
					return 0
				})
			},
			wantErr: "virtual time guard",
		},
		{
			name:    "oom kill",
			options: []string{"MULTIPROCESS"},
			params:  func(p *Params) { p.Faults = oomSpikePlan() },
			spawn:   spawnHogAndSpike,
		},
		{
			name: "runtime.Goexit",
			spawn: func(k *Kernel) {
				k.Spawn("parent", func(p *Proc) int {
					p.Fork(func(c *Proc) int {
						runtime.Goexit()
						return 0
					})
					p.Wait()
					return 0
				})
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img := buildImage(t, "lupine-base", tc.options...)
			params := Params{Image: img, RootFS: testRootFS()}
			if tc.params != nil {
				tc.params(&params)
			}
			before := runtime.NumGoroutine()
			k, err := NewKernel(params)
			if err != nil {
				t.Fatal(err)
			}
			tc.spawn(k)
			err = k.Run()
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("Run: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("Run returned %v, want an error containing %q", err, tc.wantErr)
			}
			// A goroutine that ended the run, or acknowledged its kill,
			// may still be returning; give it a moment, never forever.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("%d goroutines after Run, %d before", n, before)
			}
		})
	}
}

// mapFDTable is the descriptor table as it was kept before it became a
// slice: a map from number to description, handing out the lowest free
// number.
type mapFDTable struct {
	fds map[int]*FD
}

func (t *mapFDTable) alloc(fd *FD) int {
	n := 0
	for {
		if _, used := t.fds[n]; !used {
			break
		}
		n++
	}
	t.fds[n] = fd
	return n
}

// TestFDLowestFree: descriptors follow open(2)'s lowest-free rule, so a
// server that opens and closes one socket at a time keeps reusing one
// number and one slot.
func TestFDLowestFree(t *testing.T) {
	img := buildImage(t, "lupine-base")
	k, err := NewKernel(Params{Image: img, RootFS: testRootFS()})
	if err != nil {
		t.Fatal(err)
	}
	k.Spawn("churn", func(p *Proc) int {
		for i := 0; i < 300; i++ {
			s, _ := p.Socket(AFInet, SockStream)
			p.Close(s)
		}
		if s, _ := p.Socket(AFInet, SockStream); s != 3 || len(p.fds.fds) != 4 {
			t.Errorf("after 300 open/close pairs: socket is fd %d in %d slots, want fd 3 in 4", s, len(p.fds.fds))
		}
		return 0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// mapScan is epoll's ready set computed the way it was before the
// interest set became a sorted slice: the map's keys, sorted, that are
// readable.
func mapScan(interest map[int]*FD) []int {
	fds := make([]int, 0, len(interest))
	for fd := range interest {
		fds = append(fds, fd)
	}
	sort.Ints(fds)
	var out []int
	for _, fd := range fds {
		if fdReadable(interest[fd]) {
			out = append(out, fd)
		}
	}
	return out
}

// Fuzz ops: each step of the input is an op byte and an argument byte.
const (
	opPipe = iota
	opSocketPair
	opEpollAdd
	opEpollDel
	opClose
	opWrite
	opRead
	opConnect
	opAccept
	opFork
	numOps
)

// FuzzEpollMatchesMap holds the epoll interest set and the descriptor
// table to the map-based versions they replaced. Fuzz bytes create
// pipes, socket pairs and loopback connections, add and remove
// descriptors from an epoll set, close, write, read and fork; after
// every step the table must hold what the map does, and the ready set
// must equal the one the map-based interest set, captured at EpollCtl
// time, computes. A close followed by any create reuses the number, so
// a closed number still in the interest set comes to name a new
// description.
func FuzzEpollMatchesMap(f *testing.F) {
	img := buildImage(f, "lupine-base", "EPOLL", "UNIX")
	// The listener is descriptor 3 and the epoll set 4.
	f.Add([]byte{opPipe, 0, opEpollAdd, 5, opEpollAdd, 6, opWrite, 6, opRead, 5})
	f.Add([]byte{opSocketPair, 0, opEpollAdd, 5, opEpollAdd, 6, opWrite, 5, opClose, 5, opRead, 6, opEpollDel, 5})
	// Close a watched descriptor, reuse its number, re-add it.
	f.Add([]byte{opPipe, 0, opEpollAdd, 5, opWrite, 6, opClose, 5, opPipe, 0, opEpollAdd, 5, opWrite, 7, opRead, 5})
	f.Add([]byte{opConnect, 0, opEpollAdd, 3, opAccept, 0, opEpollAdd, 6, opWrite, 5, opFork, 0, opClose, 3, opClose, 5, opSocketPair, 0, opEpollAdd, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		k, err := NewKernel(Params{Image: img, RootFS: testRootFS()})
		if err != nil {
			t.Fatal(err)
		}
		var failure error
		k.Spawn("fuzz", func(p *Proc) int {
			failure = fuzzEpoll(p, data)
			return 0
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if failure != nil {
			t.Fatal(failure)
		}
	})
}

// fuzzEpoll runs the fuzz steps in process p and returns the first
// divergence from the map-based references.
func fuzzEpoll(p *Proc, data []byte) error {
	const port = 80
	lfd, e := p.Socket(AFInet, SockStream)
	if e != OK || p.Bind(lfd, port, "") != OK || p.Listen(lfd) != OK {
		return fmt.Errorf("listener setup: %v", e)
	}
	listener := p.fds.get(lfd)
	epfd, e := p.EpollCreate()
	if e != OK {
		return fmt.Errorf("epoll_create: %v", e)
	}
	table := &mapFDTable{fds: make(map[int]*FD)}
	for n, fd := range p.fds.fds {
		if fd != nil {
			table.fds[n] = fd
		}
	}
	interest := make(map[int]*FD)
	// installed checks that the kernel handed out the numbers the map
	// table would have, and records what they name.
	installed := func(ns ...int) error {
		for _, n := range ns {
			if want := table.alloc(p.fds.get(n)); n != want {
				return fmt.Errorf("descriptor %d allocated, the map table hands out %d", n, want)
			}
		}
		return nil
	}
	buf := make([]byte, 64)
	var ready []int
	forks := 0
	for step := 0; step+1 < len(data); step += 2 {
		op, arg := data[step]%numOps, int(data[step+1])
		fd := arg % (len(p.fds.fds) + 2) // may name a free or never-used number
		what := fmt.Sprintf("step %d (op %d, fd %d)", step/2, op, fd)
		var err error
		switch op {
		case opPipe:
			r, w, _ := p.Pipe()
			err = installed(r, w)
		case opSocketPair:
			a, b, e := p.SocketPair()
			if e != OK {
				return fmt.Errorf("%s: socketpair: %v", what, e)
			}
			err = installed(a, b)
		case opEpollAdd, opEpollDel:
			add := op == opEpollAdd
			want := OK
			switch tf := p.fds.get(fd); {
			case !add:
				delete(interest, fd)
			case tf == nil:
				want = EBADF
			default:
				interest[fd] = tf
			}
			if got := p.EpollCtl(epfd, fd, add); got != want {
				return fmt.Errorf("%s: epoll_ctl(add=%v) = %v, want %v", what, add, got, want)
			}
		case opClose:
			if fd == epfd {
				continue
			}
			want := OK
			if _, open := table.fds[fd]; !open {
				want = EBADF
			}
			delete(table.fds, fd)
			if got := p.Close(fd); got != want {
				return fmt.Errorf("%s: close = %v, want %v", what, got, want)
			}
		case opWrite:
			if f := p.fds.get(fd); f != nil && f.kind != fdEpoll {
				if n := writeRoom(f, arg%16+1); n > 0 {
					p.Write(fd, buf[:n])
				}
			}
		case opRead:
			if f := p.fds.get(fd); f != nil && (fdReadable(f) || (f.kind != fdPipeR && f.kind != fdSocket)) {
				p.Read(fd, buf[:arg%16+1])
			}
		case opConnect:
			s, e := p.Socket(AFInet, SockStream)
			if e != OK {
				return fmt.Errorf("%s: socket: %v", what, e)
			}
			if err = installed(s); err == nil {
				p.Connect(s, port, "")
			}
		case opAccept:
			if p.fds.get(lfd) == listener && fdReadable(listener) {
				c, e := p.Accept(lfd)
				if e != OK {
					return fmt.Errorf("%s: accept: %v", what, e)
				}
				err = installed(c)
			}
		case opFork:
			if forks == 4 {
				continue
			}
			forks++
			child, _ := p.Fork(func(*Proc) int { return 0 })
			if !slices.Equal(child.fds.fds, p.fds.fds) {
				return fmt.Errorf("%s: forked table %v, parent %v", what, child.fds.fds, p.fds.fds)
			}
		}
		if err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		for n := 0; n < len(p.fds.fds)+2; n++ {
			if got, want := p.fds.get(n), table.fds[n]; got != want {
				return fmt.Errorf("%s: descriptor %d is %p, the map table holds %p", what, n, got, want)
			}
		}
		want := mapScan(interest)
		if got := p.fds.get(epfd).ep.scan(nil); !slices.Equal(got, want) {
			return fmt.Errorf("%s: scan = %v, the map-based set reads %v", what, got, want)
		}
		if len(want) > 0 { // EpollWait would block on an empty set
			if ready, e = p.EpollWait(epfd, ready); e != OK || !slices.Equal(ready, want) {
				return fmt.Errorf("%s: epoll_wait = %v, %v, want %v", what, ready, e, want)
			}
		}
	}
	return nil
}

// writeRoom is how many of want bytes a write to f takes without
// blocking: pipes and connected sockets block when their buffer is full.
func writeRoom(f *FD, want int) int {
	var in *pipe
	switch {
	case f.kind == fdPipeW:
		in = f.pipe
	case f.kind == fdSocket && f.sock.peer != nil:
		in = f.sock.peer.in
	default:
		return want // fails or completes without blocking
	}
	if in.readers == 0 {
		return want // EPIPE
	}
	return min(want, in.capacity-in.buffered())
}
