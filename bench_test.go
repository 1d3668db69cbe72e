package lupine_test

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (each regenerates the artifact end-to-end through
// the real pipeline), plus micro-benchmarks of the simulation substrate
// itself. Run with:
//
//	go test -bench=. -benchmem
//
// Key simulated results are attached via b.ReportMetric (units carry a
// "sim-" prefix to distinguish virtual-time results from the wall-clock
// ns/op of the harness itself).

import (
	"testing"

	"lupine/internal/apps"
	"lupine/internal/boot"
	"lupine/internal/core"
	"lupine/internal/experiments"
	"lupine/internal/ext2"
	"lupine/internal/guest"
	"lupine/internal/kbuild"
	"lupine/internal/kconfig"
	"lupine/internal/kerneldb"
	"lupine/internal/lmbench"
	"lupine/internal/perfbench"
	"lupine/internal/vmm"
)

// runExperiment regenerates one table/figure per iteration.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		out, err := e.Run(&experiments.Env{Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		if out.String() == "" {
			b.Fatal("empty output")
		}
	}
}

// --- one benchmark per paper artifact ---

func BenchmarkFig3ConfigOptions(b *testing.B)     { runExperiment(b, "fig3") }
func BenchmarkFig4Breakdown(b *testing.B)         { runExperiment(b, "fig4") }
func BenchmarkTable1SyscallOptions(b *testing.B)  { runExperiment(b, "tab1") }
func BenchmarkTable3TopApps(b *testing.B)         { runExperiment(b, "tab3") }
func BenchmarkFig5OptionGrowth(b *testing.B)      { runExperiment(b, "fig5") }
func BenchmarkFig6ImageSize(b *testing.B)         { runExperiment(b, "fig6") }
func BenchmarkFig7BootTime(b *testing.B)          { runExperiment(b, "fig7") }
func BenchmarkFig8MemFootprint(b *testing.B)      { runExperiment(b, "fig8") }
func BenchmarkFig9SyscallLatency(b *testing.B)    { runExperiment(b, "fig9") }
func BenchmarkFig10KMLAmortization(b *testing.B)  { runExperiment(b, "fig10") }
func BenchmarkFig11ControlProcesses(b *testing.B) { runExperiment(b, "fig11") }
func BenchmarkFig12ContextSwitch(b *testing.B)    { runExperiment(b, "fig12") }
func BenchmarkTable4AppPerformance(b *testing.B)  { runExperiment(b, "tab4") }
func BenchmarkTable5LMBench(b *testing.B)         { runExperiment(b, "tab5") }
func BenchmarkSMPOverhead(b *testing.B)           { runExperiment(b, "sec5smp") }
func BenchmarkSecuritySurface(b *testing.B)       { runExperiment(b, "sec-surface") }
func BenchmarkForkDegradation(b *testing.B)       { runExperiment(b, "sec5fork") }
func BenchmarkFleetSharing(b *testing.B)          { runExperiment(b, "fleet") }
func BenchmarkSurgeScaleOut(b *testing.B)         { runExperiment(b, "surge") }
func BenchmarkBootPhaseBreakdown(b *testing.B)    { runExperiment(b, "fig7-detail") }
func BenchmarkKPTIAblation(b *testing.B)          { runExperiment(b, "abl-kpti") }
func BenchmarkParavirtAblation(b *testing.B)      { runExperiment(b, "abl-paravirt") }
func BenchmarkTinyAblation(b *testing.B)          { runExperiment(b, "abl-tiny") }

// --- headline simulated metrics, reported explicitly ---

func buildProfile(b *testing.B, kml bool, extra ...string) *kbuild.Image {
	b.Helper()
	db := kerneldb.MustLoad()
	req := db.LupineBaseRequest().Enable(extra...)
	name := "lupine-nokml"
	if kml {
		req.Set("PARAVIRT", kconfig.No).Enable("KERNEL_MODE_LINUX")
		name = "lupine"
	}
	cfg, err := db.ResolveProfile(req)
	if err != nil {
		b.Fatal(err)
	}
	img, err := kbuild.Build(db, name, cfg, kbuild.O2)
	if err != nil {
		b.Fatal(err)
	}
	return img
}

// BenchmarkHeadlineNumbers reports the paper's headline simulated values:
// image size, boot time, memory footprint and null-syscall latency.
func BenchmarkHeadlineNumbers(b *testing.B) {
	db := kerneldb.MustLoad()
	spec, app, err := helloSpec()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		u, err := core.Build(db, spec, core.BuildOpts{})
		if err != nil {
			b.Fatal(err)
		}
		r, err := boot.Simulate(u.Kernel, vmm.Firecracker(), u.RootFS.Size())
		if err != nil {
			b.Fatal(err)
		}
		fp, err := u.MemoryFootprint(core.BootOpts{}, app.SuccessText)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(u.Kernel.MegabytesMB(), "sim-imageMB")
			b.ReportMetric(r.Total.Milliseconds(), "sim-bootms")
			b.ReportMetric(float64(fp)/float64(guest.MiB), "sim-footprintMiB")
		}
	}
}

func helloSpec() (core.Spec, *apps.App, error) {
	a, err := apps.Lookup("hello-world")
	if err != nil {
		return core.Spec{}, nil, err
	}
	return core.Spec{
		Manifest: a.Manifest(),
		Image:    a.ContainerImage(),
		Program:  func(p *guest.Proc, probeOnly bool) int { return a.Main(p, probeOnly) },
	}, a, nil
}

// --- substrate micro-benchmarks (real wall-clock performance) ---

func BenchmarkKconfigResolveLupineBase(b *testing.B) {
	db := kerneldb.MustLoad()
	req := db.LupineBaseRequest()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kconfig.Resolve(db.Kconfig, req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKconfigResolveMicroVM(b *testing.B) {
	db := kerneldb.MustLoad()
	req := db.MicroVMRequest()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kconfig.Resolve(db.Kconfig, req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelBuild(b *testing.B) {
	db := kerneldb.MustLoad()
	cfg, err := db.ResolveProfile(db.LupineBaseRequest())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kbuild.Build(db, "bench", cfg, kbuild.O2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExt2RoundTrip(b *testing.B) {
	root := ext2.NewDir("",
		ext2.NewDir("bin", ext2.NewFile("app", 0o755, make([]byte, 512*1024))),
		ext2.NewDir("lib", ext2.NewFile("libc.so", 0o755, make([]byte, 600*1024))),
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img, err := ext2.WriteImage(root)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := img.Read(nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGuestNullSyscall(b *testing.B) {
	img := buildProfile(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k, err := guest.NewKernel(guest.Params{Image: img, RootFS: lmbench.BenchRootFS()})
		if err != nil {
			b.Fatal(err)
		}
		k.Spawn("bench", func(p *guest.Proc) int {
			for j := 0; j < 1000; j++ {
				p.Getppid()
			}
			return 0
		})
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGuestPipePingPong(b *testing.B) {
	img := buildProfile(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k, err := guest.NewKernel(guest.Params{Image: img, RootFS: lmbench.BenchRootFS()})
		if err != nil {
			b.Fatal(err)
		}
		k.Spawn("main", func(p *guest.Proc) int {
			r1, w1, _ := p.Pipe()
			r2, w2, _ := p.Pipe()
			p.Fork(func(c *guest.Proc) int {
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
			for j := 0; j < 200; j++ {
				p.Write(w1, buf)
				p.Read(r2, buf)
			}
			p.Poweroff()
			return 0
		})
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConfigSearchRedis(b *testing.B) {
	db := kerneldb.MustLoad()
	a, err := apps.Lookup("redis")
	if err != nil {
		b.Fatal(err)
	}
	spec := core.Spec{
		Manifest: a.Manifest(),
		Image:    a.ContainerImage(),
		Program:  func(p *guest.Proc, probeOnly bool) int { return a.Main(p, probeOnly) },
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.DeriveManifest(db, core.SearchInput{Spec: spec, SuccessText: a.SuccessText})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(res.Boots), "boots")
		}
	}
}

func BenchmarkMessaging4Groups(b *testing.B) {
	img := buildProfile(b, false, "UNIX", "FUTEX")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := perfbench.Messaging(img, 4, perfbench.Processes)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(d.Milliseconds(), "sim-ms")
		}
	}
}
