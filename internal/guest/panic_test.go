package guest

import (
	"errors"
	"testing"

	"lupine/internal/faults"
	"lupine/internal/simclock"
)

func newFaultKernel(t *testing.T, profile string, inj *faults.Injector, extra ...string) *Kernel {
	t.Helper()
	img := buildImage(t, profile, extra...)
	k, err := NewKernel(Params{Image: img, RootFS: testRootFS(), Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestMemFreeUnderflowIsModeledPanic: corrupting the memory accounting
// must kill the guest with a structured kernel panic through Run, not
// tear down the test binary with a Go panic.
func TestMemFreeUnderflowIsModeledPanic(t *testing.T) {
	k := newTestKernel(t, "lupine-base")
	k.Spawn("bug", func(p *Proc) int {
		p.k.memFree(1 << 40)
		return 0
	})
	err := k.Run()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Run returned %v, want *PanicError", err)
	}
	if pe.Reason == "" || !k.ConsoleContains("Kernel panic - not syncing") {
		t.Errorf("panic not narrated: reason=%q console=%q", pe.Reason, k.Console())
	}
	if k.MemUsed() < 0 {
		t.Errorf("memUsed left negative: %d", k.MemUsed())
	}
}

// oomSpikePlan fires a 300 MiB pressure spike on the second populating
// allocation — after the hog below is resident.
func oomSpikePlan() *faults.Injector {
	return faults.MustNew(faults.Plan{
		Seed:  7,
		Rules: []faults.Rule{{Site: SiteOOMPressure, NthHit: 2, Param: 300 * MiB}},
	})
}

// spawnHogAndSpike is the shared driver: a main process forks a 300 MiB
// hog, waits for it to be resident, then allocates under the spike.
func spawnHogAndSpike(k *Kernel) {
	k.Spawn("main", func(p *Proc) int {
		hog, e := p.Fork(func(h *Proc) int {
			if e := h.Alloc(300 * MiB); e != OK {
				return 1
			}
			h.Nanosleep(50 * simclock.Millisecond)
			h.FreeMem(300 * MiB)
			return 0
		})
		if e != OK || hog == nil {
			return 1
		}
		p.Nanosleep(10 * simclock.Millisecond)
		p.Alloc(1 * MiB) // hit 2: the spike fires here
		p.Wait()
		p.Println("main: survived")
		return 0
	})
}

// TestOOMKillerRequiresMultiprocess is the config-causality check: the
// same spike is an OOM kill with CONFIG_MULTIPROCESS and a kernel panic
// without it.
func TestOOMKillerRequiresMultiprocess(t *testing.T) {
	t.Run("multiprocess kills the hog", func(t *testing.T) {
		k := newFaultKernel(t, "lupine-base", oomSpikePlan(), "MULTIPROCESS")
		spawnHogAndSpike(k)
		if err := k.Run(); err != nil {
			t.Fatalf("Run: %v (console: %s)", err, k.Console())
		}
		if !k.ConsoleContains("Out of memory: Killed process") {
			t.Errorf("no OOM-kill line on console: %q", k.Console())
		}
		if !k.ConsoleContains("main: survived") {
			t.Errorf("main did not survive the spike: %q", k.Console())
		}
		if got := k.Stats().OOMKills; got != 1 {
			t.Errorf("OOMKills = %d, want 1", got)
		}
	})
	t.Run("no multiprocess panics", func(t *testing.T) {
		k := newFaultKernel(t, "lupine-base", oomSpikePlan())
		spawnHogAndSpike(k)
		err := k.Run()
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("Run returned %v, want *PanicError", err)
		}
		if !k.ConsoleContains("no OOM killer") {
			t.Errorf("panic not attributed to missing OOM killer: %q", k.Console())
		}
		if k.ConsoleContains("main: survived") {
			t.Error("main survived a kernel panic")
		}
	})
}

// TestOOMKillUnwindsDeferredSyscalls: a killed process makes no more
// syscalls. The hog is OOM-killed while it sleeps, and the Close it
// deferred unwinds with it instead of charging the CPU it no longer
// holds; main survives the spike.
func TestOOMKillUnwindsDeferredSyscalls(t *testing.T) {
	k := newFaultKernel(t, "lupine-base", oomSpikePlan(), "MULTIPROCESS")
	k.Spawn("main", func(p *Proc) int {
		p.Fork(func(h *Proc) int {
			r, _, _ := h.Pipe()
			defer h.Close(r)
			if e := h.Alloc(300 * MiB); e != OK {
				return 1
			}
			h.Nanosleep(50 * simclock.Millisecond)
			return 0
		})
		p.Nanosleep(10 * simclock.Millisecond)
		p.Alloc(1 * MiB) // hit 2: the spike fires here
		p.Wait()
		p.Println("main: survived")
		return 0
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v (console: %s)", err, k.Console())
	}
	if !k.ConsoleContains("main: survived") {
		t.Errorf("main did not survive the spike: %q", k.Console())
	}
	if got := k.Stats().OOMKills; got != 1 {
		t.Errorf("OOMKills = %d, want 1", got)
	}
}

// TestTransientSyscallFault: an injected EINTR surfaces through Read.
func TestTransientSyscallFault(t *testing.T) {
	inj := faults.MustNew(faults.Plan{
		Seed:  1,
		Rules: []faults.Rule{{Site: SiteSyscallTransient, NthHit: 1}},
	})
	k := newFaultKernel(t, "lupine-base", inj)
	k.Spawn("reader", func(p *Proc) int {
		fd, e := p.Open("/etc/hostname", ORdonly)
		if e != OK {
			return 1
		}
		buf := make([]byte, 16)
		if _, e := p.Read(fd, buf); e != EINTR {
			p.Printf("first read: %v\n", e)
			return 1
		}
		n, e := p.Read(fd, buf) // retry succeeds
		if e != OK || n == 0 {
			return 1
		}
		p.Println("reader: ok")
		return 0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !k.ConsoleContains("reader: ok") {
		t.Errorf("retry after EINTR failed: %q", k.Console())
	}
}

// TestLoopbackDatagramLoss: a dropped datagram is silently lost; the next
// one arrives.
func TestLoopbackDatagramLoss(t *testing.T) {
	inj := faults.MustNew(faults.Plan{
		Seed:  1,
		Rules: []faults.Rule{{Site: SiteLoopbackDrop, NthHit: 1}},
	})
	k := newFaultKernel(t, "lupine-base", inj)
	k.Spawn("receiver", func(p *Proc) int {
		fd, e := p.Socket(AFInet, SockDgram)
		if e != OK {
			return 1
		}
		if e := p.Bind(fd, 9000, ""); e != OK {
			return 1
		}
		buf := make([]byte, 64)
		n, e := p.Read(fd, buf)
		if e != OK {
			return 1
		}
		p.Printf("receiver: got %q\n", string(buf[:n]))
		return 0
	})
	k.Spawn("sender", func(p *Proc) int {
		fd, e := p.Socket(AFInet, SockDgram)
		if e != OK {
			return 1
		}
		if e := p.Connect(fd, 9000, ""); e != OK {
			return 1
		}
		if _, e := p.Write(fd, []byte("first")); e != OK { // dropped
			return 1
		}
		if _, e := p.Write(fd, []byte("second")); e != OK {
			return 1
		}
		return 0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !k.ConsoleContains(`receiver: got "second"`) {
		t.Errorf("receiver did not get the surviving datagram: %q", k.Console())
	}
}
