package lupine_test

// The "abstract test": one integration test per claim in the paper's
// abstract, run through the public pipeline. If this file passes, the
// reproduction stands.

import (
	"testing"

	"lupine/internal/apps"
	"lupine/internal/boot"
	"lupine/internal/core"
	"lupine/internal/guest"
	"lupine/internal/kerneldb"
	"lupine/internal/libos"
	"lupine/internal/vmm"
)

func spec(t *testing.T, name string) (core.Spec, *apps.App) {
	t.Helper()
	a, err := apps.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return core.Spec{
		Manifest: a.Manifest(),
		Image:    a.ContainerImage(),
		Program:  func(p *guest.Proc, probeOnly bool) int { return a.Main(p, probeOnly) },
	}, a
}

// "small image size (4 MB)"
func TestAbstractImageSize(t *testing.T) {
	db := kerneldb.MustLoad()
	s, _ := spec(t, "hello-world")
	u, err := core.Build(db, s, core.BuildOpts{KML: true})
	if err != nil {
		t.Fatal(err)
	}
	if mb := u.Kernel.MegabytesMB(); mb < 3.8 || mb > 4.4 {
		t.Errorf("image = %.2f MB, abstract claims ~4 MB", mb)
	}
}

// "fast boot time (23 ms)"
func TestAbstractBootTime(t *testing.T) {
	db := kerneldb.MustLoad()
	s, _ := spec(t, "hello-world")
	u, err := core.Build(db, s, core.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := boot.Simulate(u.Kernel, vmm.Firecracker(), u.RootFS.Size())
	if err != nil {
		t.Fatal(err)
	}
	if ms := r.Total.Milliseconds(); ms < 20 || ms > 26 {
		t.Errorf("boot = %.1f ms, abstract claims ~23 ms", ms)
	}
}

// "low memory footprint (21 MB)"
func TestAbstractFootprint(t *testing.T) {
	db := kerneldb.MustLoad()
	s, a := spec(t, "hello-world")
	u, err := core.Build(db, s, core.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	fp, err := u.MemoryFootprint(core.BootOpts{}, a.SuccessText)
	if err != nil {
		t.Fatal(err)
	}
	if mib := fp / guest.MiB; mib < 18 || mib > 24 {
		t.Errorf("footprint = %d MiB, abstract claims ~21 MB", mib)
	}
}

// "system call latency (20 µs)" — the abstract's unit is a typo for ns in
// context; Figure 9 shows 0.020 µs for the KML null call.
func TestAbstractSyscallLatency(t *testing.T) {
	db := kerneldb.MustLoad()
	s, _ := spec(t, "hello-world")
	u, err := core.Build(db, s, core.BuildOpts{KML: true})
	if err != nil {
		t.Fatal(err)
	}
	vm, err := u.Boot(core.BootOpts{ProbeOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	var perNull float64
	vm.Guest.Spawn("lat", func(p *guest.Proc) int {
		start := p.Kernel().Now()
		const n = 1000
		for i := 0; i < n; i++ {
			p.Getppid()
		}
		perNull = p.Kernel().Now().Sub(start).Microseconds() / n
		return 0
	})
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if perNull < 0.015 || perNull > 0.025 {
		t.Errorf("null syscall = %.3f us, want ~0.020", perNull)
	}
}

// "up to 33% higher throughput than microVM" and "outperforming at least
// one reference unikernel in all of the above dimensions".
func TestAbstractThroughputAndDominance(t *testing.T) {
	db := kerneldb.MustLoad()
	s, a := spec(t, "nginx")
	build := func(f func() (*core.Unikernel, error)) float64 {
		t.Helper()
		u, err := f()
		if err != nil {
			t.Fatal(err)
		}
		vm, err := u.Boot(core.BootOpts{})
		if err != nil {
			t.Fatal(err)
		}
		var res apps.BenchResult
		apps.SpawnAB(vm.Guest, a.Port, 200, 1, &res)
		if err := vm.Run(); err != nil {
			t.Fatal(err)
		}
		return res.Throughput
	}
	micro := build(func() (*core.Unikernel, error) { return core.BuildMicroVM(db, s) })
	lup := build(func() (*core.Unikernel, error) { return core.Build(db, s, core.BuildOpts{KML: true}) })
	if gain := lup/micro - 1; gain < 0.25 || gain > 0.40 {
		t.Errorf("nginx-conn gain = %.0f%%, abstract claims up to 33%%", gain*100)
	}

	// Dominance over at least one reference unikernel in every dimension
	// (it is HermiTux for boot; OSv for image; all three for footprint
	// and throughput).
	herm := libos.HermiTux()
	zfs, _ := libos.OSv("zfs")
	u, _ := core.Build(db, spec2(t, "hello-world"), core.BuildOpts{KML: true})
	osvImg, _ := zfs.ImageSize("hello-world")
	if u.Kernel.Size >= osvImg {
		t.Error("lupine image not below OSv's")
	}
	nokml, _ := core.Build(db, spec2(t, "hello-world"), core.BuildOpts{})
	r, _ := boot.Simulate(nokml.Kernel, vmm.Firecracker(), nokml.RootFS.Size())
	hermBoot, _ := herm.BootTime("hello-world")
	if r.Total >= hermBoot {
		t.Error("lupine boot not below HermiTux's")
	}
}

func spec2(t *testing.T, name string) core.Spec {
	s, _ := spec(t, name)
	return s
}

// "whereas many unikernels simply crash ... graceful degradation".
func TestAbstractGracefulDegradation(t *testing.T) {
	for _, s := range libos.All() {
		if s.Fork() == nil {
			t.Errorf("%s did not fail on fork", s.Name)
		}
	}
	db := kerneldb.MustLoad()
	sp, _ := spec(t, "hello-world")
	sp.Program = func(p *guest.Proc, probeOnly bool) int {
		if _, e := p.Fork(func(c *guest.Proc) int { return 0 }); e != guest.OK {
			return 1
		}
		p.Wait()
		p.Println("fork survived")
		return 0
	}
	u, err := core.Build(db, sp, core.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	ok, console, err := u.RunAndCheck(core.BootOpts{}, "fork survived")
	if err != nil || !ok {
		t.Errorf("lupine fork failed: %v %q", err, console)
	}
}
