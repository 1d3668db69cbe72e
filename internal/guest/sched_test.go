package guest

import (
	"testing"

	"lupine/internal/simclock"
)

func TestWaitQueueFIFO(t *testing.T) {
	k := newTestKernel(t, "lupine-base")
	var order []string
	wq := &waitQueue{name: "test"}
	for _, name := range []string{"a", "b", "c"} {
		name := name
		k.Spawn(name, func(p *Proc) int {
			p.blockOn(wq)
			order = append(order, name)
			return 0
		})
	}
	k.Spawn("waker", func(p *Proc) int {
		// Let all three park first.
		for wq.empty() || len(wq.procs) < 3 {
			p.Yield()
		}
		if n := wq.wake(p.k, 2, p.cpu.now); n != 2 {
			t.Errorf("wake(2) woke %d", n)
		}
		if n := wq.wakeAll(p.k, p.cpu.now); n != 1 {
			t.Errorf("wakeAll woke %d, want 1 remaining", n)
		}
		return 0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Errorf("wake order = %v, want FIFO [a b c]", order)
	}
}

func TestWaitQueueRemove(t *testing.T) {
	wq := &waitQueue{name: "x"}
	a := &Proc{pid: 1}
	b := &Proc{pid: 2}
	wq.enqueue(a)
	wq.enqueue(b)
	wq.remove(a)
	if len(wq.procs) != 1 || wq.procs[0] != b {
		t.Errorf("remove left %v", wq.procs)
	}
	wq.remove(a) // absent: no-op
	if wq.empty() {
		t.Error("queue should still hold b")
	}
}

func TestTimerOrdering(t *testing.T) {
	k := newTestKernel(t, "lupine-base")
	var order []int
	for _, d := range []simclock.Duration{30, 10, 20} {
		d := d
		k.Spawn("sleeper", func(p *Proc) int {
			p.Nanosleep(d * simclock.Millisecond)
			order = append(order, int(d))
			return 0
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 10 || order[1] != 20 || order[2] != 30 {
		t.Errorf("timer firing order = %v, want [10 20 30]", order)
	}
	if now := k.Now(); now < simclock.Time(30*simclock.Millisecond) {
		t.Errorf("final time %v, want >= 30ms", now)
	}
}

func TestSMPVirtualTimeOverlap(t *testing.T) {
	// Two CPU-bound processes on two CPUs finish in ~1x the work, not 2x.
	img := buildImage(t, "lupine-base", "SMP")
	k, err := NewKernel(Params{Image: img, VCPUs: 2, RootFS: testRootFS()})
	if err != nil {
		t.Fatal(err)
	}
	const work = 20 * simclock.Millisecond
	for i := 0; i < 2; i++ {
		k.Spawn("burner", func(p *Proc) int {
			p.Work(work)
			return 0
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if now := k.Now(); now > simclock.Time(work)+simclock.Time(simclock.Millisecond) {
		t.Errorf("2 CPUs took %v for parallel work, want ~%v", now, work)
	}
	if k.NumCPU() != 2 {
		t.Errorf("NumCPU = %d", k.NumCPU())
	}
}

func TestContextSwitchCostCharged(t *testing.T) {
	// Ping-pong between two processes must cost more than the same ops in
	// one process, by roughly the context-switch cost per hop.
	k1 := newTestKernel(t, "lupine-base")
	var solo simclock.Time
	k1.Spawn("solo", func(p *Proc) int {
		r, w, _ := p.Pipe()
		buf := make([]byte, 1)
		start := p.Kernel().Now()
		for i := 0; i < 100; i++ {
			p.Write(w, buf)
			p.Read(r, buf)
		}
		solo = p.Kernel().Now() - simclock.Time(0)
		_ = start
		return 0
	})
	if err := k1.Run(); err != nil {
		t.Fatal(err)
	}

	k2 := newTestKernel(t, "lupine-base")
	k2.Spawn("pair", func(p *Proc) int {
		r1, w1, _ := p.Pipe()
		r2, w2, _ := p.Pipe()
		p.Fork(func(c *Proc) int {
			buf := make([]byte, 1)
			for {
				n, _ := c.Read(r1, buf)
				if n == 0 {
					return 0
				}
				c.Write(w2, buf)
			}
		})
		buf := make([]byte, 1)
		for i := 0; i < 100; i++ {
			p.Write(w1, buf)
			p.Read(r2, buf)
		}
		p.Poweroff()
		return 0
	})
	if err := k2.Run(); err != nil {
		t.Fatal(err)
	}
	if k2.Now() <= simclock.Time(solo) {
		t.Errorf("cross-process ping-pong (%v) not costlier than solo (%v)", k2.Now(), solo)
	}
}

func TestDispatcherPrefersEarliestReady(t *testing.T) {
	// A process that slept until t=1ms must run before one that became
	// runnable at t=2ms, regardless of spawn order.
	k := newTestKernel(t, "lupine-base")
	var order []string
	k.Spawn("late", func(p *Proc) int {
		p.Nanosleep(2 * simclock.Millisecond)
		order = append(order, "late")
		return 0
	})
	k.Spawn("early", func(p *Proc) int {
		p.Nanosleep(1 * simclock.Millisecond)
		order = append(order, "early")
		return 0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "early" {
		t.Errorf("order = %v, want early first", order)
	}
}
