package boot

import (
	"strings"
	"testing"

	"lupine/internal/kbuild"
	"lupine/internal/kconfig"
	"lupine/internal/kerneldb"
	"lupine/internal/simclock"
	"lupine/internal/vmm"
)

func image(t *testing.T, name string, req *kconfig.Request) *kbuild.Image {
	t.Helper()
	db := kerneldb.MustLoad()
	cfg, err := db.ResolveProfile(req)
	if err != nil {
		t.Fatal(err)
	}
	img, err := kbuild.Build(db, name, cfg, kbuild.O2)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

const rootfsBytes = 2 << 20

func ms(d simclock.Duration) float64 { return d.Milliseconds() }

func TestBootTimes(t *testing.T) {
	db := kerneldb.MustLoad()
	base := image(t, "lupine-base", db.LupineBaseRequest())
	micro := image(t, "microvm", db.MicroVMRequest())

	rb, err := Simulate(base, vmm.Firecracker(), rootfsBytes)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := Simulate(micro, vmm.Firecracker(), rootfsBytes)
	if err != nil {
		t.Fatal(err)
	}
	// §4.3/Figure 7: lupine boots ~23 ms, 59% faster than microVM (~56 ms).
	if got := ms(rb.Total); got < 20 || got > 27 {
		t.Errorf("lupine-base boot = %.1f ms, want ~23 ms\n%s", got, rb)
	}
	if got := ms(rm.Total); got < 48 || got > 64 {
		t.Errorf("microVM boot = %.1f ms, want ~56 ms\n%s", got, rm)
	}
	speedup := 1 - rb.Total.Seconds()/rm.Total.Seconds()
	if speedup < 0.50 || speedup > 0.68 {
		t.Errorf("boot speedup = %.0f%%, want ~59%%", speedup*100)
	}
}

func TestParavirtAblation(t *testing.T) {
	db := kerneldb.MustLoad()
	base := image(t, "lupine-base", db.LupineBaseRequest())
	noPV := image(t, "lupine-nopv",
		db.LupineBaseRequest().Set("PARAVIRT", kconfig.No))

	rb, _ := Simulate(base, vmm.Firecracker(), rootfsBytes)
	rn, _ := Simulate(noPV, vmm.Firecracker(), rootfsBytes)
	// §4.3: without CONFIG_PARAVIRT boot jumps to ~71 ms.
	if got := ms(rn.Total); got < 65 || got > 78 {
		t.Errorf("no-PARAVIRT boot = %.1f ms, want ~71 ms", got)
	}
	if rn.Total <= rb.Total {
		t.Error("PARAVIRT did not speed up boot")
	}
	found := false
	for _, ph := range rn.Phases {
		if ph.Name == "timer calibration" {
			found = true
		}
	}
	if !found {
		t.Error("no-PARAVIRT boot lacks timer calibration phase")
	}
}

func TestGeneralKernelBootDelta(t *testing.T) {
	db := kerneldb.MustLoad()
	base := image(t, "lupine-base", db.LupineBaseRequest())
	general := image(t, "lupine-general",
		db.LupineBaseRequest().Enable(kerneldb.GeneralOptions()...))
	rb, _ := Simulate(base, vmm.Firecracker(), rootfsBytes)
	rg, _ := Simulate(general, vmm.Firecracker(), rootfsBytes)
	// §4.3: lupine-general boots ~2 ms later than application-specific
	// kernels.
	delta := ms(rg.Total) - ms(rb.Total)
	if delta < 0.5 || delta > 4 {
		t.Errorf("lupine-general boot delta = %.2f ms, want ~2 ms", delta)
	}
}

func TestQEMUPCIEnumeration(t *testing.T) {
	db := kerneldb.MustLoad()
	withPCI := image(t, "generic", db.MicroVMRequest().Enable("PCI"))
	rq, err := Simulate(withPCI, vmm.QEMU(), rootfsBytes)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rq.String(), "pci enumeration") {
		t.Error("QEMU+PCI boot lacks enumeration phase")
	}
	// The same kernel under Firecracker never enumerates PCI.
	rf, _ := Simulate(withPCI, vmm.Firecracker(), rootfsBytes)
	if strings.Contains(rf.String(), "pci enumeration") {
		t.Error("Firecracker boot enumerated PCI")
	}
	if rq.Total <= rf.Total {
		t.Error("QEMU boot not slower than Firecracker")
	}
}

func TestUnikernelMonitorsRejectLinux(t *testing.T) {
	db := kerneldb.MustLoad()
	base := image(t, "lupine-base", db.LupineBaseRequest())
	for _, mon := range []*vmm.Monitor{vmm.Solo5HVT(), vmm.UHyve()} {
		if _, err := Simulate(base, mon, rootfsBytes); err == nil {
			t.Errorf("%s booted Linux, want error", mon.Name)
		}
	}
}

func TestSimulateErrors(t *testing.T) {
	if _, err := Simulate(nil, vmm.Firecracker(), 0); err == nil {
		t.Error("nil image accepted")
	}
	db := kerneldb.MustLoad()
	base := image(t, "lupine-base", db.LupineBaseRequest())
	if _, err := Simulate(base, nil, 0); err == nil {
		t.Error("nil monitor accepted")
	}
}

func TestPhaseOrderAndRendering(t *testing.T) {
	db := kerneldb.MustLoad()
	img := image(t, "lupine-base", db.LupineBaseRequest())
	r, err := Simulate(img, vmm.Firecracker(), rootfsBytes)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"monitor setup", "kernel load", "early init", "subsystem init", "rootfs mount", "init script"}
	if len(r.Phases) != len(want) {
		t.Fatalf("phases = %v", r.Phases)
	}
	var sum simclock.Duration
	for i, ph := range r.Phases {
		if ph.Name != want[i] {
			t.Errorf("phase %d = %q, want %q", i, ph.Name, want[i])
		}
		if ph.Cost <= 0 {
			t.Errorf("phase %q has non-positive cost", ph.Name)
		}
		sum += ph.Cost
	}
	if sum != r.Total {
		t.Errorf("phases sum %v != total %v", sum, r.Total)
	}
	out := r.String()
	if !strings.Contains(out, "TOTAL") || !strings.Contains(out, "monitor setup") {
		t.Errorf("render = %q", out)
	}
}

func TestBiggerRootfsMountsSlower(t *testing.T) {
	db := kerneldb.MustLoad()
	img := image(t, "lupine-base", db.LupineBaseRequest())
	small, _ := Simulate(img, vmm.Firecracker(), 1<<20)
	big, _ := Simulate(img, vmm.Firecracker(), 64<<20)
	if big.Total <= small.Total {
		t.Error("64 MB rootfs did not mount slower than 1 MB")
	}
}
