package main

// env carries one iteration's inputs (the database, the seed) and its
// optional tracer through the workload compositions. Every call into a
// layer goes through one of the methods below, which open the layer's
// span and tally the layer's counts; with a nil tracer they make the
// same calls and record nothing but the counts.

import (
	"lupine/internal/boot"
	"lupine/internal/bunny"
	"lupine/internal/core"
	"lupine/internal/fabric"
	"lupine/internal/farm"
	"lupine/internal/faults"
	"lupine/internal/fleet"
	"lupine/internal/guest"
	"lupine/internal/kbuild"
	"lupine/internal/kconfig"
	"lupine/internal/kerneldb"
	"lupine/internal/lmbench"
	"lupine/internal/perfbench"
	"lupine/internal/region"
	"lupine/internal/simclock"
	"lupine/internal/slo"
	"lupine/internal/snapshot"
	"lupine/internal/telemetry"
	"lupine/internal/vmm"
)

type env struct {
	db   *kerneldb.DB
	seed uint64
	tr   *tracer // nil: untraced
	n    counts
}

// counts are one iteration's layer counters. They come from the
// layers' own results and stats, so traced and untraced iterations
// agree on them.
type counts struct {
	Syscalls     int64 `json:"syscalls"` // on guest kernels the benchmark runs itself
	Attempts     int   `json:"attempts"` // supervised boots
	Restarts     int   `json:"restarts"`
	FleetEvents  int   `json:"fleet_events"`
	FleetTotal   int   `json:"fleet_total"`
	FleetOK      int   `json:"fleet_ok"`
	FleetRetries int   `json:"fleet_retries"`
	Segments     int   `json:"segments"`
	Rexmits      int   `json:"rexmits"`
	Drops        int   `json:"drops"`
	RegionEvents int   `json:"region_events"`
	RegionTotal  int   `json:"region_total"`
	RegionOK     int   `json:"region_ok"`
	Evacuated    int   `json:"evacuated"`
	EvacRestores int   `json:"evac_restores"`
	CacheHits    int   `json:"cache_hits"`
	CacheMisses  int   `json:"cache_misses"`
}

func (c *counts) add(o counts) {
	c.Syscalls += o.Syscalls
	c.Attempts += o.Attempts
	c.Restarts += o.Restarts
	c.FleetEvents += o.FleetEvents
	c.FleetTotal += o.FleetTotal
	c.FleetOK += o.FleetOK
	c.FleetRetries += o.FleetRetries
	c.Segments += o.Segments
	c.Rexmits += o.Rexmits
	c.Drops += o.Drops
	c.RegionEvents += o.RegionEvents
	c.RegionTotal += o.RegionTotal
	c.RegionOK += o.RegionOK
	c.Evacuated += o.Evacuated
	c.EvacRestores += o.EvacRestores
	c.CacheHits += o.CacheHits
	c.CacheMisses += o.CacheMisses
}

func (c *counts) addNet(s fabric.Stats) {
	c.Segments += s.Segments
	c.Rexmits += s.Retransmits
	c.Drops += s.Dropped
}

// sloEvery is the SLI sample interval every scoped row uses, as in the
// experiments.
const sloEvery = 250 * simclock.Microsecond

// scoped is a hero row's SLO scope with the private telemetry it reads.
type scoped struct {
	scope *slo.Scope
	tr    *telemetry.Tracer
	reg   *telemetry.Registry
	track string
}

func newScoped(track string, inj *faults.Injector, objectives ...slo.Objective) *scoped {
	sc := &scoped{tr: telemetry.New(), reg: telemetry.NewRegistry(), track: track}
	sc.scope = slo.NewScope(track, sc.reg, sc.tr, sloEvery)
	for _, o := range objectives {
		sc.scope.Add(o)
	}
	sc.scope.SetInjector(inj)
	return sc
}

// bind registers the scope's sampler on clk, which is what Scope.Bind
// does, with the sampler wrapped in a span when tracing.
func (e *env) bind(sc *scoped, clk *simclock.Clock) {
	sample := sc.scope.Sample
	if e.tr != nil {
		sample = func(t simclock.Time) {
			s := e.tr.begin("slo.sample")
			sc.scope.Sample(t)
			e.tr.end(s)
		}
	}
	clk.Sample(sloEvery, sample)
}

func (e *env) finish(sc *scoped, end simclock.Time) {
	s := e.tr.begin("slo.finish")
	sc.scope.Finish(end)
	e.tr.end(s)
}

func (e *env) build(fn func() (*core.Unikernel, error)) (*core.Unikernel, error) {
	s := e.tr.beginAllocs("core.build")
	u, err := fn()
	e.tr.end(s)
	return u, err
}

func (e *env) boot(u *core.Unikernel, opts core.BootOpts) (*core.VM, error) {
	s := e.tr.begin("core.boot")
	vm, err := u.Boot(opts)
	e.tr.end(s)
	return vm, err
}

func (e *env) runVM(vm *core.VM) error {
	s := e.tr.begin("guest.run")
	err := vm.Run()
	e.tr.end(s)
	e.n.Syscalls += vm.Guest.Stats().Syscalls
	return err
}

func (e *env) runKernel(k *guest.Kernel) error {
	s := e.tr.begin("guest.run")
	err := k.Run()
	e.tr.end(s)
	e.n.Syscalls += k.Stats().Syscalls
	return err
}

func (e *env) supervise(policy vmm.RestartPolicy, boot vmm.BootFn) vmm.SupervisorReport {
	s := e.tr.begin("vmm.supervise")
	rep := vmm.NewSupervisor(policy).Run(boot)
	e.tr.end(s)
	e.n.Attempts += len(rep.Attempts)
	e.n.Restarts += rep.Restarts()
	return rep
}

// runFleet constructs and drives one standalone fleet; sc, when set,
// observes it and samples its SLIs on the fleet clock.
func (e *env) runFleet(cfg fleet.Config, backends []*fleet.Backend, inj *faults.Injector, sc *scoped) (fleet.Result, *fleet.Fleet) {
	s := e.tr.beginAllocs("fleet.run")
	f := fleet.New(cfg, backends, nil, inj)
	if sc != nil {
		f.Observe(sc.tr, sc.reg, sc.track)
		e.bind(sc, f.Clock())
	}
	res := f.Run()
	e.tr.end(s)
	if sc != nil {
		e.finish(sc, res.End)
	}
	e.n.FleetEvents += res.Events
	e.n.FleetTotal += res.Total
	e.n.FleetOK += res.OK
	e.n.FleetRetries += res.Retries
	e.n.addNet(f.Net().Stats())
	return res, f
}

// runRegion constructs and drives one region control plane.
func (e *env) runRegion(cfg region.Config, inj *faults.Injector, sc *scoped) region.Result {
	s := e.tr.beginAllocs("region.run")
	p := region.New(cfg, inj)
	if sc != nil {
		p.Observe(sc.tr, sc.reg, sc.track)
		e.bind(sc, p.Clock())
	}
	res := p.Run()
	e.tr.end(s)
	if sc != nil {
		e.finish(sc, res.End)
	}
	e.n.RegionEvents += res.Events
	e.n.RegionTotal += res.Total
	e.n.RegionOK += res.OK
	e.n.Evacuated += res.Evacuated
	e.n.EvacRestores += res.EvacRestores
	e.n.addNet(p.Net().Stats())
	return res
}

// capture boots u in probe mode under Firecracker and snapshots it,
// returning the snapshot, the measured cold boot and the guest's memory.
func (e *env) capture(u *core.Unikernel) (*snapshot.Snapshot, simclock.Duration, int64, error) {
	mon := vmm.Firecracker()
	vm, err := e.boot(u, core.BootOpts{Monitor: mon, ProbeOnly: true})
	if err != nil {
		return nil, 0, 0, err
	}
	if err := e.runVM(vm); err != nil {
		return nil, 0, 0, err
	}
	s := e.tr.begin("snapshot.capture")
	snap, err := snapshot.Capture(u.Kernel, mon, vm.Boot, vm.Guest)
	e.tr.end(s)
	return snap, vm.Boot.Total, vm.Guest.MemUsed(), err
}

// compile goes through the build cache; the cache's hit count before
// and after tells a hit from a miss.
func (e *env) compile(c *bunny.Cache, spec *bunny.Spec) (*bunny.Artifact, error) {
	hits := c.Stats().Hits
	s := e.tr.begin("bunny.compile")
	art, err := c.Compile(spec, nil, 0)
	name := "bunny.compile_miss"
	if c.Stats().Hits > hits {
		name = "bunny.compile_hit"
	}
	e.tr.endAs(s, name)
	return art, err
}

func (e *env) farmRun(f *farm.Farm, specs []*bunny.Spec, at simclock.Time) (*farm.Result, error) {
	s := e.tr.begin("farm.run")
	res, err := f.Run(specs, at)
	e.tr.end(s)
	return res, err
}

func (e *env) resolve(req *kconfig.Request) (*kconfig.Config, error) {
	s := e.tr.begin("kconfig.resolve")
	cfg, err := e.db.ResolveProfile(req)
	e.tr.end(s)
	return cfg, err
}

func (e *env) kbuild(name string, cfg *kconfig.Config, opt kbuild.OptLevel) (*kbuild.Image, error) {
	s := e.tr.begin("kbuild.build")
	img, err := kbuild.Build(e.db, name, cfg, opt)
	e.tr.end(s)
	return img, err
}

func (e *env) simulate(img *kbuild.Image, mon *vmm.Monitor, rootfsBytes int64) (boot.Report, error) {
	s := e.tr.begin("boot.simulate")
	r, err := boot.Simulate(img, mon, rootfsBytes)
	e.tr.end(s)
	return r, err
}

func (e *env) lmbench(img *kbuild.Image) (lmbench.Results, error) {
	s := e.tr.begin("lmbench.suite")
	res, err := lmbench.RunSuite(img, lmbench.BenchRootFS(), nil)
	e.tr.end(s)
	return res, err
}

func (e *env) messaging(img *kbuild.Image, groups int, mode perfbench.Mode) (simclock.Duration, error) {
	s := e.tr.begin("perfbench.messaging")
	d, err := perfbench.Messaging(img, groups, mode)
	e.tr.end(s)
	return d, err
}
