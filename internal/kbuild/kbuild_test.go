package kbuild

import (
	"testing"

	"lupine/internal/kconfig"
	"lupine/internal/kerneldb"
)

func buildProfile(t *testing.T, name string, req *kconfig.Request, opt OptLevel) *Image {
	t.Helper()
	db := kerneldb.MustLoad()
	cfg, err := db.ResolveProfile(req)
	if err != nil {
		t.Fatalf("%s: resolve: %v", name, err)
	}
	img, err := Build(db, name, cfg, opt)
	if err != nil {
		t.Fatalf("%s: build: %v", name, err)
	}
	return img
}

func TestImageSizes(t *testing.T) {
	db := kerneldb.MustLoad()
	base := buildProfile(t, "lupine-base", db.LupineBaseRequest(), O2)
	micro := buildProfile(t, "microvm", db.MicroVMRequest(), O2)
	general := buildProfile(t, "lupine-general", db.LupineBaseRequest().Enable(kerneldb.GeneralOptions()...), O2)

	// Figure 6: lupine-base ≈ 4 MB, microVM ≈ 15 MB, base ≈ 27% of microVM.
	if mb := base.MegabytesMB(); mb < 3.7 || mb > 4.4 {
		t.Errorf("lupine-base = %.2f MB, want ~4 MB", mb)
	}
	if mb := micro.MegabytesMB(); mb < 13.5 || mb > 16.0 {
		t.Errorf("microVM = %.2f MB, want ~15 MB", mb)
	}
	ratio := float64(base.Size) / float64(micro.Size)
	if ratio < 0.24 || ratio > 0.31 {
		t.Errorf("base/microVM = %.2f, want ~0.27", ratio)
	}
	// lupine-general adds the 19 options: still well under half of microVM
	// (§4.2: app-specific kernels span 27-33% of microVM).
	gratio := float64(general.Size) / float64(micro.Size)
	if gratio < ratio || gratio > 0.40 {
		t.Errorf("general/microVM = %.2f, want in (%.2f, 0.40)", gratio, ratio)
	}
}

func TestTinyImageSmaller(t *testing.T) {
	db := kerneldb.MustLoad()
	base := buildProfile(t, "lupine-base", db.LupineBaseRequest(), O2)
	tinyReq := db.LupineBaseRequest()
	for _, n := range kerneldb.TinyDisables() {
		tinyReq.Set(n, kconfig.No)
	}
	tiny := buildProfile(t, "lupine-tiny", tinyReq, Os)
	// §4.2: -tiny shrinks the image by a further ~6%.
	shrink := 1 - float64(tiny.Size)/float64(base.Size)
	if shrink < 0.04 || shrink > 0.09 {
		t.Errorf("tiny shrink = %.1f%%, want ~6%%", shrink*100)
	}
	if tiny.RuntimeScale() <= base.RuntimeScale() {
		t.Error("-Os must carry a runtime penalty")
	}
	if tiny.Opt.String() != "-Os" || base.Opt.String() != "-O2" {
		t.Errorf("opt rendering: %s / %s", tiny.Opt, base.Opt)
	}
}

func TestSyscallGating(t *testing.T) {
	db := kerneldb.MustLoad()
	base := buildProfile(t, "lupine-base", db.LupineBaseRequest(), O2)
	redis := buildProfile(t, "lupine-redis", db.LupineBaseRequest().Enable("EPOLL", "FUTEX", "UNIX"), O2)

	// Ungated calls are always available.
	for _, sc := range []string{"read", "write", "getppid", "fork", "execve"} {
		if !base.HasSyscall(sc) {
			t.Errorf("base kernel missing unconditional syscall %s", sc)
		}
	}
	// lupine-base gates out futex/epoll; the redis kernel restores them
	// but not AIO (§3.1.1's example).
	if base.HasSyscall("futex") || base.HasSyscall("epoll_wait") {
		t.Error("lupine-base exposes gated syscalls")
	}
	if !redis.HasSyscall("futex") || !redis.HasSyscall("epoll_wait") {
		t.Error("redis kernel missing its syscalls")
	}
	if redis.HasSyscall("io_submit") || redis.HasSyscall("eventfd") {
		t.Error("redis kernel exposes AIO/EVENTFD syscalls")
	}
	if got := redis.GatingOption("io_submit"); got != "AIO" {
		t.Errorf("GatingOption(io_submit) = %q, want AIO", got)
	}
	if got := redis.GatingOption("read"); got != "" {
		t.Errorf("GatingOption(read) = %q, want unconditional", got)
	}
}

func TestKMLFlag(t *testing.T) {
	db := kerneldb.MustLoad()
	nokml := buildProfile(t, "lupine-nokml", db.LupineBaseRequest(), O2)
	if nokml.KML() {
		t.Error("nokml image reports KML")
	}
	kmlReq := db.LupineBaseRequest().
		Set("PARAVIRT", kconfig.No).
		Enable("KERNEL_MODE_LINUX")
	kml := buildProfile(t, "lupine", kmlReq, O2)
	if !kml.KML() {
		t.Error("KML image does not report KML")
	}
	if kml.Enabled("PARAVIRT") {
		t.Error("KML image still has PARAVIRT")
	}
}

func TestBuildErrors(t *testing.T) {
	db := kerneldb.MustLoad()
	if _, err := Build(db, "nil", nil, O2); err == nil {
		t.Error("nil config accepted")
	}
	cfg := kconfig.NewConfig()
	cfg.Enable("NOT_A_REAL_OPTION")
	if _, err := Build(db, "bad", cfg, O2); err == nil {
		t.Error("unknown option accepted")
	}
}

func TestBootOptionCostGrowsWithConfig(t *testing.T) {
	db := kerneldb.MustLoad()
	base := buildProfile(t, "lupine-base", db.LupineBaseRequest(), O2)
	micro := buildProfile(t, "microvm", db.MicroVMRequest(), O2)
	if base.BootOptionCost <= 0 {
		t.Fatal("base boot cost not accumulated")
	}
	if micro.BootOptionCost <= base.BootOptionCost {
		t.Errorf("microVM boot cost %v not above base %v", micro.BootOptionCost, base.BootOptionCost)
	}
}

// A build sums the enabled options' costs and shares the tree's gating
// table: the image and its sorted option names are its only allocations.
func TestBuildAllocations(t *testing.T) {
	db := kerneldb.MustLoad()
	cfg, err := db.ResolveProfile(db.LupineBaseRequest())
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := Build(db, "lupine-base", cfg, O2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("Build: %.0f allocations, want <= 2", allocs)
	}
}
