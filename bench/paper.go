package main

// The paper workload: the inputs of Figure 7 (boot time), Figure 9
// (syscall latency), Figure 12 (perf messaging) and Table 4
// (application throughput), plus one full lmbench suite (Table 5),
// driven through the build, boot and guest layers only. No fleet,
// fabric, region or SLO code runs, so it is the negative control for
// changes to those layers. Its inputs are the paper's fixed
// configurations: the seed does not change them.

import (
	"fmt"

	"lupine/internal/apps"
	"lupine/internal/core"
	"lupine/internal/guest"
	"lupine/internal/kbuild"
	"lupine/internal/kconfig"
	"lupine/internal/kerneldb"
	"lupine/internal/lmbench"
	"lupine/internal/perfbench"
	"lupine/internal/vmm"
)

func (e *env) image(name string, req *kconfig.Request) (*kbuild.Image, error) {
	cfg, err := e.resolve(req)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return e.kbuild(name, cfg, kbuild.O2)
}

// lupineImage builds an application-specific Lupine kernel; kml swaps
// PARAVIRT for Kernel Mode Linux.
func (e *env) lupineImage(name string, options []string, kml bool) (*kbuild.Image, error) {
	req := e.db.LupineBaseRequest().Enable(options...)
	if kml {
		req.Set("PARAVIRT", kconfig.TriValue(kconfig.No)).Enable("KERNEL_MODE_LINUX")
	}
	return e.image(name, req)
}

// syscallLatencies measures Figure 9's null/read/write rows on img.
func (e *env) syscallLatencies(img *kbuild.Image) (null, read, write float64, err error) {
	k, err := guest.NewKernel(guest.Params{Image: img, RootFS: lmbench.BenchRootFS()})
	if err != nil {
		return 0, 0, 0, err
	}
	k.Spawn("lat", func(p *guest.Proc) int {
		const n = 1000
		start := p.Kernel().Now()
		for i := 0; i < n; i++ {
			p.Getppid()
		}
		null = p.Kernel().Now().Sub(start).Microseconds() / n
		read = lmbench.ReadLatency(p)
		write = lmbench.WriteLatency(p)
		p.Poweroff()
		return 0
	})
	err = e.runKernel(k)
	return null, read, write, err
}

// tab4Workloads are Table 4's columns: redis-benchmark get/set and
// ApacheBench connection-heavy and session-heavy runs.
var tab4Workloads = []struct {
	name, app, op string
	conns, reqs   int // ab
	requests      int // redis-benchmark
}{
	{name: "redis-get", app: "redis", op: "get", requests: 3000},
	{name: "redis-set", app: "redis", op: "set", requests: 3000},
	{name: "nginx-conn", app: "nginx", conns: 300, reqs: 1},
	{name: "nginx-sess", app: "nginx", conns: 30, reqs: 100},
}

// tab4Rows are Table 4's kernel variants, in the paper's row order.
var tab4Rows = []struct {
	name  string
	build func(db *kerneldb.DB, s core.Spec) (*core.Unikernel, error)
}{
	{"microVM", core.BuildMicroVM},
	{"lupine-general", func(db *kerneldb.DB, s core.Spec) (*core.Unikernel, error) { return core.BuildGeneral(db, s, true) }},
	{"lupine", func(db *kerneldb.DB, s core.Spec) (*core.Unikernel, error) {
		return core.Build(db, s, core.BuildOpts{KML: true})
	}},
	{"lupine-tiny", func(db *kerneldb.DB, s core.Spec) (*core.Unikernel, error) {
		return core.Build(db, s, core.BuildOpts{KML: true, Tiny: true})
	}},
	{"lupine-nokml", func(db *kerneldb.DB, s core.Spec) (*core.Unikernel, error) {
		return core.Build(db, s, core.BuildOpts{})
	}},
	{"lupine-nokml-tiny", func(db *kerneldb.DB, s core.Spec) (*core.Unikernel, error) {
		return core.Build(db, s, core.BuildOpts{Tiny: true})
	}},
}

// tab4Cell builds one variant for one workload's app, boots it and
// drives the workload with the external benchmark client.
func (e *env) tab4Cell(o *output, row, wl int) error {
	r, w := tab4Rows[row], tab4Workloads[wl]
	a, err := apps.Lookup(w.app)
	if err != nil {
		return err
	}
	spec, err := appSpec(w.app)
	if err != nil {
		return err
	}
	u, err := e.build(func() (*core.Unikernel, error) { return r.build(e.db, spec) })
	if err != nil {
		return fmt.Errorf("tab4 %s: %w", r.name, err)
	}
	vm, err := e.boot(u, core.BootOpts{})
	if err != nil {
		return fmt.Errorf("tab4 %s/%s: %w", r.name, w.name, err)
	}
	var res apps.BenchResult
	if w.app == "redis" {
		apps.SpawnRedisBenchmark(vm.Guest, a.Port, w.requests, w.op, &res)
	} else {
		apps.SpawnAB(vm.Guest, a.Port, w.conns, w.reqs, &res)
	}
	if err := e.runVM(vm); err != nil {
		return fmt.Errorf("tab4 %s/%s: %w", r.name, w.name, err)
	}
	if res.Errors > 0 {
		return fmt.Errorf("tab4 %s/%s: %d request errors", r.name, w.name, res.Errors)
	}
	o.line("tab4 %s %s requests=%d elapsed=%d", r.name, w.name, res.Requests, res.Elapsed)
	return nil
}

func runPaper(e *env) (*output, error) {
	o := &output{}

	// Figure 7: hello-world boot time under Firecracker.
	micro, err := e.image("microvm", e.db.MicroVMRequest())
	if err != nil {
		return nil, err
	}
	nokml, err := e.lupineImage("lupine-nokml", nil, false)
	if err != nil {
		return nil, err
	}
	nokmlGeneral, err := e.lupineImage("lupine-nokml-general", kerneldb.GeneralOptions(), false)
	if err != nil {
		return nil, err
	}
	for _, img := range []*kbuild.Image{micro, nokml, nokmlGeneral} {
		r, err := e.simulate(img, vmm.Firecracker(), 3<<20)
		if err != nil {
			return nil, err
		}
		o.line("fig7 %s boot=%d", img.Name, r.Total)
	}

	// Figure 9: null/read/write latency on the guest kernel.
	kml, err := e.lupineImage("lupine", nil, true)
	if err != nil {
		return nil, err
	}
	general, err := e.lupineImage("lupine-general", kerneldb.GeneralOptions(), true)
	if err != nil {
		return nil, err
	}
	for _, img := range []*kbuild.Image{micro, nokml, kml, general} {
		null, read, write, err := e.syscallLatencies(img)
		if err != nil {
			return nil, err
		}
		o.line("fig9 %s null=%g read=%g write=%g", img.Name, null, read, write)
	}

	// Table 5: the full lmbench suite on lupine-general.
	suite, err := e.lmbench(general)
	if err != nil {
		return nil, err
	}
	for _, name := range lmbench.RowNames() {
		o.line("lmbench %s %g %s", name, suite[name].Value, suite[name].Unit)
	}

	// Figure 12: perf sched-messaging, threads vs processes, KML vs not.
	msgNoKML, err := e.lupineImage("lupine-nokml", []string{"UNIX", "FUTEX"}, false)
	if err != nil {
		return nil, err
	}
	msgKML, err := e.lupineImage("lupine", []string{"UNIX", "FUTEX"}, true)
	if err != nil {
		return nil, err
	}
	for _, img := range []*kbuild.Image{msgKML, msgNoKML} {
		for _, mode := range []perfbench.Mode{perfbench.Threads, perfbench.Processes} {
			for _, groups := range []int{1, 2, 4, 8, 16} {
				d, err := e.messaging(img, groups, mode)
				if err != nil {
					return nil, fmt.Errorf("fig12 %s mode %d g=%d: %w", img.Name, mode, groups, err)
				}
				o.line("fig12 %s mode=%d groups=%d total=%d", img.Name, mode, groups, d)
			}
		}
	}

	// Table 4: every variant × workload, built, booted and driven.
	for row := range tab4Rows {
		for wl := range tab4Workloads {
			if err := e.tab4Cell(o, row, wl); err != nil {
				return nil, err
			}
		}
	}
	o.events = int(e.n.Syscalls)
	return o, nil
}
