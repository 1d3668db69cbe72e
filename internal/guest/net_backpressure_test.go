package guest

import "testing"

// TestListenBacklogBackpressure drives a listener that never accepts and
// checks the guest-side half of admission control: the backlog honors the
// listen(2) cap and overflowing connects are refused, not queued.
func TestListenBacklogBackpressure(t *testing.T) {
	k := newTestKernel(t, "lupine-base")
	k.Spawn("server", func(p *Proc) int {
		const port = 9000
		lfd, e := p.Socket(AFInet, SockStream)
		if e != OK {
			t.Errorf("socket: %v", e)
			return 1
		}
		if e := p.Bind(lfd, port, ""); e != OK {
			t.Errorf("bind: %v", e)
			return 1
		}
		if e := p.ListenBacklog(lfd, 2); e != OK {
			t.Errorf("listen: %v", e)
			return 1
		}

		dial := func() (int, Errno) {
			cfd, e := p.Socket(AFInet, SockStream)
			if e != OK {
				t.Errorf("client socket: %v", e)
				return -1, e
			}
			return cfd, p.Connect(cfd, port, "")
		}

		// Two pending connections fill the backlog.
		for i := 0; i < 2; i++ {
			if _, e := dial(); e != OK {
				t.Errorf("connect %d: %v, want OK", i+1, e)
			}
		}
		// The third is refused: the queue must not grow past the cap.
		cfd, e := dial()
		if e != ECONNREFUSED {
			t.Errorf("overflow connect: %v, want ECONNREFUSED", e)
		}
		p.Close(cfd)

		// Accepting one connection frees a slot and admits a new connect.
		if _, e := p.Accept(lfd); e != OK {
			t.Errorf("accept: %v", e)
		}
		if _, e := dial(); e != OK {
			t.Errorf("connect after accept: %v, want OK", e)
		}
		return 0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestListenBacklogClamped checks the listen(2) clamping rules: backlog
// below 1 still admits one connection, and Listen defaults to SOMAXCONN.
func TestListenBacklogClamped(t *testing.T) {
	k := newTestKernel(t, "lupine-base")
	k.Spawn("server", func(p *Proc) int {
		lfd, _ := p.Socket(AFInet, SockStream)
		p.Bind(lfd, 9001, "")
		if e := p.ListenBacklog(lfd, 0); e != OK {
			t.Errorf("listen(0): %v", e)
			return 1
		}
		cfd, _ := p.Socket(AFInet, SockStream)
		if e := p.Connect(cfd, 9001, ""); e != OK {
			t.Errorf("first connect under backlog 0: %v, want OK (clamped to 1)", e)
		}
		cfd2, _ := p.Socket(AFInet, SockStream)
		if e := p.Connect(cfd2, 9001, ""); e != ECONNREFUSED {
			t.Errorf("second connect: %v, want ECONNREFUSED", e)
		}

		lfd2, _ := p.Socket(AFInet, SockStream)
		p.Bind(lfd2, 9002, "")
		if e := p.Listen(lfd2); e != OK {
			t.Errorf("listen default: %v", e)
			return 1
		}
		for i := 0; i < SOMAXCONN; i++ {
			c, _ := p.Socket(AFInet, SockStream)
			if e := p.Connect(c, 9002, ""); e != OK {
				t.Errorf("connect %d under default backlog: %v", i+1, e)
				return 1
			}
		}
		c, _ := p.Socket(AFInet, SockStream)
		if e := p.Connect(c, 9002, ""); e != ECONNREFUSED {
			t.Errorf("connect %d: %v, want ECONNREFUSED", SOMAXCONN+1, e)
		}
		return 0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestAcceptDrainsBacklogFilledToCap: with the backlog filled to
// exactly the listen(2) cap, the next connect is refused, Accept
// returns exactly cap connections, and the drained backlog admits a
// connect again.
func TestAcceptDrainsBacklogFilledToCap(t *testing.T) {
	cases := []struct {
		name string
		cap  int
	}{
		{"cap-1", 1},
		{"cap-3", 3},
		{"cap-somaxconn", SOMAXCONN},
	}
	for i, tc := range cases {
		tc := tc
		port := 9200 + i
		t.Run(tc.name, func(t *testing.T) {
			k := newTestKernel(t, "lupine-base")
			k.Spawn("main", func(p *Proc) int {
				lfd, _ := p.Socket(AFInet, SockStream)
				if e := p.Bind(lfd, port, ""); e != OK {
					t.Fatalf("bind: %v", e)
				}
				if e := p.ListenBacklog(lfd, tc.cap); e != OK {
					t.Fatalf("listen(%d): %v", tc.cap, e)
				}
				dial := func() Errno {
					cfd, e := p.Socket(AFInet, SockStream)
					if e != OK {
						t.Fatalf("client socket: %v", e)
					}
					return p.Connect(cfd, port, "")
				}
				for j := 0; j < tc.cap; j++ {
					if e := dial(); e != OK {
						t.Fatalf("connect %d/%d: %v", j+1, tc.cap, e)
					}
				}
				if e := dial(); e != ECONNREFUSED {
					t.Errorf("connect past cap: %v, want ECONNREFUSED", e)
				}
				// Exactly cap pending connections come out of Accept.
				for j := 0; j < tc.cap; j++ {
					if _, e := p.Accept(lfd); e != OK {
						t.Errorf("accept %d/%d: %v", j+1, tc.cap, e)
					}
				}
				// The drained queue admits fresh connections again.
				if e := dial(); e != OK {
					t.Errorf("connect after drain: %v, want OK", e)
				}
				return 0
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
