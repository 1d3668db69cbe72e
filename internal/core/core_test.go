package core

import (
	"strings"
	"testing"

	"lupine/internal/apps"
	"lupine/internal/guest"
	"lupine/internal/kerneldb"
	"lupine/internal/kml"
	"lupine/internal/manifest"
	"lupine/internal/vmm"
)

func specFor(t *testing.T, name string) Spec {
	t.Helper()
	a, err := apps.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return Spec{
		Manifest: a.Manifest(),
		Image:    a.ContainerImage(),
		Program:  func(p *guest.Proc, probeOnly bool) int { return a.Main(p, probeOnly) },
	}
}

func TestBuildAndBootHello(t *testing.T) {
	db := kerneldb.MustLoad()
	u, err := Build(db, specFor(t, "hello-world"), BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if u.Kernel.Name != "lupine-hello-world" {
		t.Errorf("kernel name = %s", u.Kernel.Name)
	}
	vm, err := u.Boot(BootOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if !vm.Succeeded("Hello from Docker!") {
		t.Fatalf("console = %q", vm.Console())
	}
	if vm.Boot.Total.Milliseconds() < 15 || vm.Boot.Total.Milliseconds() > 30 {
		t.Errorf("hello boot = %.1f ms, want ~23 ms", vm.Boot.Total.Milliseconds())
	}
}

func TestBuildKMLVariant(t *testing.T) {
	db := kerneldb.MustLoad()
	spec := specFor(t, "redis")
	u, err := Build(db, spec, BuildOpts{KML: true})
	if err != nil {
		t.Fatal(err)
	}
	if !u.Kernel.KML() {
		t.Error("KML build lacks CONFIG_KERNEL_MODE_LINUX")
	}
	if u.Kernel.Enabled("PARAVIRT") {
		t.Error("KML build kept PARAVIRT")
	}
	// The rootfs carries the patched musl.
	vm, err := u.Boot(BootOpts{ProbeOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if !vm.Succeeded("Ready to accept connections") {
		t.Fatalf("redis did not start: %q", vm.Console())
	}
	// Inspect the built rootfs bytes directly for the patched libc.
	tree, err := u.RootFS.Read(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !kml.IsPatched(tree.Lookup("/lib/libc.so").Data) {
		t.Error("KML unikernel rootfs lacks patched libc")
	}
}

func TestBuildTinyVariant(t *testing.T) {
	db := kerneldb.MustLoad()
	spec := specFor(t, "redis")
	normal, err := Build(db, spec, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := Build(db, spec, BuildOpts{Tiny: true})
	if err != nil {
		t.Fatal(err)
	}
	shrink := 1 - float64(tiny.Kernel.Size)/float64(normal.Kernel.Size)
	if shrink < 0.04 || shrink > 0.09 {
		t.Errorf("tiny shrink = %.1f%%, want ~6%%", shrink*100)
	}
	// -tiny still runs the app.
	ok, console, err := tiny.RunAndCheck(BootOpts{}, "Ready to accept connections")
	if err != nil || !ok {
		t.Errorf("tiny redis failed: %v %q", err, console)
	}
}

func TestMicroVMBaseline(t *testing.T) {
	db := kerneldb.MustLoad()
	spec := specFor(t, "redis")
	micro, err := BuildMicroVM(db, spec)
	if err != nil {
		t.Fatal(err)
	}
	lup, err := Build(db, spec, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if micro.Kernel.Size <= lup.Kernel.Size {
		t.Error("microVM kernel not larger than lupine")
	}
	ok, console, err := micro.RunAndCheck(BootOpts{}, "Ready to accept connections")
	if err != nil || !ok {
		t.Errorf("microVM redis failed: %v %q", err, console)
	}
}

func TestAllTop20RunOnOwnKernels(t *testing.T) {
	db := kerneldb.MustLoad()
	for _, name := range apps.Names() {
		a, _ := apps.Lookup(name)
		spec := specFor(t, name)
		u, err := Build(db, spec, BuildOpts{})
		if err != nil {
			t.Errorf("%s: build: %v", name, err)
			continue
		}
		ok, console, err := u.RunAndCheck(BootOpts{}, a.SuccessText)
		if err != nil {
			t.Errorf("%s: run: %v", name, err)
			continue
		}
		if !ok {
			t.Errorf("%s: success criterion %q not met; console:\n%s", name, a.SuccessText, console)
		}
	}
}

func TestAllTop20RunOnLupineGeneral(t *testing.T) {
	// §4.1: a single kernel with the 19-option union runs all 20 apps.
	db := kerneldb.MustLoad()
	for _, name := range apps.Names() {
		a, _ := apps.Lookup(name)
		u, err := BuildGeneral(db, specFor(t, name), false)
		if err != nil {
			t.Errorf("%s: build general: %v", name, err)
			continue
		}
		ok, console, err := u.RunAndCheck(BootOpts{}, a.SuccessText)
		if err != nil || !ok {
			t.Errorf("%s on lupine-general failed: %v %q", name, err, console)
		}
	}
}

func TestAppsFailOnLupineBase(t *testing.T) {
	// Apps with requirements crash on a bare lupine-base kernel with the
	// characteristic error messages.
	db := kerneldb.MustLoad()
	a, _ := apps.Lookup("redis")
	spec := specFor(t, "redis")
	bare := spec
	bare.Manifest = manifest.New("redis", a.Entrypoint)
	u, err := Build(db, bare, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	ok, console, err := u.RunAndCheck(BootOpts{}, a.SuccessText)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("redis started on lupine-base without its options")
	}
	if !strings.Contains(console, "futex facility") {
		t.Errorf("console = %q, want futex error first", console)
	}
}

func TestDeriveManifestMatchesTable3(t *testing.T) {
	// The automatic §4.1 search re-derives the per-app option sets.
	db := kerneldb.MustLoad()
	for _, name := range []string{"redis", "nginx", "postgres", "hello-world", "node", "traefik"} {
		a, _ := apps.Lookup(name)
		res, err := DeriveManifest(db, SearchInput{
			Spec:        specFor(t, name),
			SuccessText: a.SuccessText,
		})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		want := a.Manifest().Options
		got := res.Manifest.Options
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s derived %v, want %v", name, got, want)
		}
		// One boot discovers one option, plus the final passing boot.
		if res.Boots != len(want)+1 {
			t.Errorf("%s took %d boots, want %d", name, res.Boots, len(want)+1)
		}
	}
}

func TestFootprintRanking(t *testing.T) {
	// Figure 8: lupine's footprint beats microVM's by ~28%, and is flat
	// across applications.
	db := kerneldb.MustLoad()
	foot := func(u *Unikernel, success string) int64 {
		t.Helper()
		fp, err := u.MemoryFootprint(BootOpts{}, success)
		if err != nil {
			t.Fatal(err)
		}
		return fp
	}
	helloSpec := specFor(t, "hello-world")
	redisSpec := specFor(t, "redis")
	lupHello, _ := Build(db, helloSpec, BuildOpts{})
	lupRedis, _ := Build(db, redisSpec, BuildOpts{})
	microHello, _ := BuildMicroVM(db, helloSpec)

	fpLupHello := foot(lupHello, "Hello from Docker!")
	fpLupRedis := foot(lupRedis, "Ready to accept connections")
	fpMicro := foot(microHello, "Hello from Docker!")

	if fpLupHello >= fpMicro {
		t.Errorf("lupine footprint %d MiB not below microVM %d MiB",
			fpLupHello/guest.MiB, fpMicro/guest.MiB)
	}
	reduction := 1 - float64(fpLupHello)/float64(fpMicro)
	if reduction < 0.15 || reduction > 0.45 {
		t.Errorf("footprint reduction = %.0f%%, want ~28%%", reduction*100)
	}
	// Linux-based footprints barely vary across apps (kernel dominates).
	diff := fpLupRedis - fpLupHello
	if diff < 0 {
		diff = -diff
	}
	if diff > 8*guest.MiB {
		t.Errorf("lupine footprint varies too much: hello %d vs redis %d MiB",
			fpLupHello/guest.MiB, fpLupRedis/guest.MiB)
	}
}

func TestGracefulDegradationFork(t *testing.T) {
	// §5: Lupine keeps running when the app forks (a control-process
	// shell pattern), even on an application-specific kernel.
	db := kerneldb.MustLoad()
	spec := specFor(t, "hello-world")
	spec.Program = func(p *guest.Proc, probeOnly bool) int {
		child, e := p.Fork(func(c *guest.Proc) int {
			c.Println("child alive")
			return 0
		})
		if e != guest.OK || child == nil {
			p.Println("fork failed")
			return 1
		}
		p.Wait()
		p.Println("parent survived fork")
		return 0
	}
	u, err := Build(db, spec, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	vm, err := u.Boot(BootOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"child alive", "parent survived fork"} {
		if !vm.Succeeded(want) {
			t.Errorf("console missing %q: %s", want, vm.Console())
		}
	}
}

func TestUnikernelMonitorRejected(t *testing.T) {
	db := kerneldb.MustLoad()
	u, err := Build(db, specFor(t, "hello-world"), BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.Boot(BootOpts{Monitor: vmm.Solo5HVT()}); err == nil {
		t.Error("Lupine booted on solo5-hvt; Linux does not run on unikernel monitors (§6.2)")
	}
}

func TestBuildErrors(t *testing.T) {
	db := kerneldb.MustLoad()
	if _, err := Build(db, Spec{}, BuildOpts{}); err == nil {
		t.Error("empty spec accepted")
	}
	spec := specFor(t, "redis")
	spec.Manifest = manifest.New("redis", []string{"/bin/redis-server"}, "NO_SUCH_OPTION")
	if _, err := Build(db, spec, BuildOpts{}); err == nil {
		t.Error("unknown option accepted")
	}
}
