package main

// The three storm workloads, composed from the layers' public APIs the
// way internal/experiments composes netsplit, regionfail and catalog:
// same builds, fault plans, configurations and rows, so at one seed
// they execute the same simulated events as the shipped experiments.
// They are written out here, not called through experiments.Run, so
// that refactoring the experiment harness leaves the benchmark alone.

import (
	"errors"
	"fmt"

	"lupine/internal/apps"
	"lupine/internal/bunny"
	"lupine/internal/core"
	"lupine/internal/fabric"
	"lupine/internal/farm"
	"lupine/internal/faults"
	"lupine/internal/fleet"
	"lupine/internal/guest"
	"lupine/internal/libos"
	"lupine/internal/region"
	"lupine/internal/simclock"
	"lupine/internal/slo"
	"lupine/internal/snapshot"
	"lupine/internal/telemetry"
	"lupine/internal/vmm"
)

const (
	ms       = simclock.Time(simclock.Millisecond)
	poolSize = 3 // VMs per standalone fleet pool
)

func appSpec(name string) (core.Spec, error) {
	a, err := apps.Lookup(name)
	if err != nil {
		return core.Spec{}, err
	}
	return core.Spec{
		Manifest: a.Manifest(),
		Image:    a.ContainerImage(),
		Program:  func(p *guest.Proc, probeOnly bool) int { return a.Main(p, probeOnly) },
	}, nil
}

// restartPolicy is the supervisor's panic=reboot configuration.
func restartPolicy() vmm.RestartPolicy {
	return vmm.RestartPolicy{
		MaxRestarts:     5,
		Backoff:         10 * simclock.Millisecond,
		BackoffFactor:   2,
		MaxBackoff:      80 * simclock.Millisecond,
		BootWatchdog:    500 * simclock.Millisecond,
		CrashLoopBudget: 3,
	}
}

// stormWorkload is the guest program a supervised backend runs: a
// server that forks a short-lived memory hog and a loopback echo peer,
// then serves allocations and round-trips, absorbing every fault it can
// (ENOMEM, EINTR/EAGAIN, EIO, dropped segments). It returns whether the
// service came up, when, and whether the loop finished.
func stormWorkload(p *guest.Proc, readyAt *simclock.Time, done *bool) int {
	const (
		echoPort = 7000
		hogBytes = 160 * guest.MiB
	)
	retry := func(op func() (int, guest.Errno)) (int, guest.Errno) {
		var n int
		var e guest.Errno
		for try := 0; try < 4; try++ {
			n, e = op()
			if e != guest.EINTR && e != guest.EAGAIN {
				break
			}
		}
		return n, e
	}
	p.Println("chaos: ready")
	*readyAt = p.Kernel().Now()
	if _, e := p.Fork(func(h *guest.Proc) int {
		if e := h.Alloc(hogBytes); e != guest.OK {
			return 1
		}
		h.Nanosleep(40 * simclock.Millisecond)
		h.FreeMem(hogBytes)
		return 0
	}); e != guest.OK {
		p.Println("chaos: fork failed")
		return 1
	}
	lfd, e := p.Socket(guest.AFInet, guest.SockStream)
	if e != guest.OK {
		return 1
	}
	if e := p.Bind(lfd, echoPort, ""); e != guest.OK {
		return 1
	}
	if e := p.Listen(lfd); e != guest.OK {
		return 1
	}
	if _, e := p.Fork(func(ch *guest.Proc) int {
		cfd, e := ch.Socket(guest.AFInet, guest.SockStream)
		if e != guest.OK {
			return 1
		}
		if e := ch.Connect(cfd, echoPort, ""); e != guest.OK {
			return 1
		}
		buf := make([]byte, 256)
		for {
			n, e := retry(func() (int, guest.Errno) { return ch.Read(cfd, buf) })
			if e != guest.OK || n == 0 {
				break
			}
			retry(func() (int, guest.Errno) { return ch.Write(cfd, buf[:n]) })
		}
		ch.Close(cfd)
		return 0
	}); e != guest.OK {
		p.Println("chaos: fork failed")
		return 1
	}
	afd, e := p.Accept(lfd)
	if e != guest.OK {
		return 1
	}
	msg := []byte("chaos-ping......................")
	reply := make([]byte, 256)
	for i := 0; i < 40; i++ {
		if e := p.Alloc(4 * guest.MiB); e == guest.OK {
			p.FreeMem(4 * guest.MiB)
		}
		if _, e := retry(func() (int, guest.Errno) { return p.Write(afd, msg) }); e == guest.OK {
			retry(func() (int, guest.Errno) { return p.Read(afd, reply) })
		}
		p.Nanosleep(2 * simclock.Millisecond)
	}
	p.Close(afd)
	p.Close(lfd)
	p.Wait()
	p.Wait()
	p.Println("chaos: done")
	*done = true
	return 0
}

// stormBoot runs one supervised lifetime of u under inj and classifies
// how it ended.
func (e *env) stormBoot(u *core.Unikernel, inj *faults.Injector) vmm.BootFn {
	return func(int) vmm.Attempt {
		vm, err := e.boot(u, core.BootOpts{Faults: inj})
		if err != nil {
			att := vmm.Attempt{Outcome: vmm.OutcomeBootFail, Detail: err.Error()}
			var be *core.BootError
			if errors.As(err, &be) {
				att.Ran = be.Report.Total
				partial := be.Report
				att.Telemetry = func(tr *telemetry.Tracer, track string, start simclock.Time) {
					partial.Observe(tr, track, start)
				}
			}
			return att
		}
		readyAt, done := simclock.Time(-1), false
		vm.Unikernel.Spec.Program = func(p *guest.Proc, probeOnly bool) int {
			return stormWorkload(p, &readyAt, &done)
		}
		runErr := e.runVM(vm)
		att := vmm.Attempt{Ran: vm.Boot.Total + simclock.Duration(vm.Guest.Now())}
		bootRep := vm.Boot
		att.Telemetry = func(tr *telemetry.Tracer, track string, start simclock.Time) {
			bootRep.Observe(tr, track, start)
		}
		if readyAt >= 0 {
			att.Ready = true
			att.ReadyAfter = vm.Boot.Total + simclock.Duration(readyAt)
		}
		switch {
		case runErr == nil && done:
			att.Outcome = vmm.OutcomeOK
		case vm.ExitReason() != nil:
			att.Outcome = vmm.OutcomePanic
			att.Detail = vm.ExitReason().Reason
		case runErr != nil:
			att.Outcome = vmm.OutcomeHang
			att.Detail = runErr.Error()
		default:
			att.Outcome = vmm.OutcomeBootFail
			att.Detail = "workload never completed"
		}
		return att
	}
}

// libosCrash is a unikernel comparator's only lifetime: it boots, then
// dies of the workload's first fork, and its monitor never restarts it.
func libosCrash(s *libos.System) vmm.Attempt {
	boot := 10 * simclock.Millisecond
	if bt, err := s.BootTime("redis"); err == nil {
		boot = bt
	}
	return vmm.Attempt{
		Outcome:    vmm.OutcomePanic,
		Ready:      true,
		ReadyAfter: boot,
		Ran:        boot + simclock.Millisecond,
		Detail:     s.Fork().Error(),
	}
}

func (e *env) libosTimeline(s *libos.System) fleet.Timeline {
	crash := libosCrash(s)
	return fleet.FromReport(e.supervise(vmm.RestartPolicy{}, func(int) vmm.Attempt { return crash }))
}

// bootTime is a fresh instance's boot+init latency, from the cleanest
// supervised boot in the pool.
func bootTime(backends []*fleet.Backend) simclock.Duration {
	best := simclock.Duration(-1)
	for _, b := range backends {
		if tl := b.Timeline; len(tl.Up) > 0 {
			if d := simclock.Duration(tl.Up[0].From); best < 0 || d < best {
				best = d
			}
		}
	}
	if best < 0 {
		return 10 * simclock.Millisecond
	}
	return best
}

func recovered(backends []*fleet.Backend) bool {
	for _, b := range backends[:poolSize] {
		if !b.Timeline.UpAfter {
			return false
		}
	}
	return true
}

func availabilityObjective(track string, target float64, rules []slo.BurnRule) slo.Objective {
	return slo.Objective{
		Name:   "availability",
		Good:   []string{track + ".served"},
		Bad:    []string{track + ".shed", track + ".failed"},
		Target: target,
		Rules:  rules,
	}
}

// regionAvailabilityObjective sums the availability SLI across a
// plane's per-region cells.
func regionAvailabilityObjective(track string, cfg region.Config) slo.Objective {
	o := slo.Objective{Name: "availability", Target: 0.999, Rules: slo.DefaultRules(2*simclock.Millisecond, 10, 4)}
	for _, r := range cfg.Regions {
		lane := track + "/" + r.Name
		o.Good = append(o.Good, lane+".served")
		o.Bad = append(o.Bad, lane+".shed", lane+".failed")
	}
	return o
}

// --- netsplit ---

// netsplitBackendPlan is backend i's mild guest-side storm: one
// staggered memory spike plus light syscall noise.
func netsplitBackendPlan(seed uint64, i int) faults.Plan {
	off := simclock.Time(i) * 12 * ms
	return faults.Plan{
		Seed: seed + 0xB0A7 + uint64(i)*7919,
		Rules: []faults.Rule{
			{Site: guest.SiteOOMPressure, From: 6*ms + off, To: 30*ms + off, Prob: 1, Limit: 1, Param: 350 * int64(guest.MiB)},
			{Site: guest.SiteSyscallTransient, From: 2 * ms, Prob: 0.05, Limit: 2},
		},
	}
}

// netsplitWirePlan is the fabric's storm, keyed to traffic start: a
// partition into vm1 (fabric node 3), a partition out of vm2 (node 4),
// flaps, loss, delay and the fleet's probe/dispatch drop sites.
func netsplitWirePlan(seed uint64, start simclock.Time) faults.Plan {
	return faults.Plan{
		Seed: seed ^ 0x5EA51DE,
		Rules: []faults.Rule{
			{Site: fabric.SitePartition, From: start + 10*ms, To: start + 28*ms, Prob: 1, Param: 3},
			{Site: fabric.SitePartition, From: start + 45*ms, To: start + 60*ms, Prob: 1, Param: -4},
			{Site: fabric.SiteFlap, From: start, To: start + 90*ms, Prob: 0.004, Param: 400},
			{Site: fabric.SiteLoss, From: start, To: start + 90*ms, Prob: 0.02},
			{Site: fabric.SiteDelay, From: start, Prob: 0.06, Param: 150},
			{Site: fleet.SiteProbeDrop, Prob: 0.01},
			{Site: fleet.SiteDispatchDrop, From: start + 65*ms, To: start + 80*ms, Prob: 0.01},
		},
	}
}

func (e *env) netsplitBackends(u *core.Unikernel) ([]*fleet.Backend, error) {
	var out []*fleet.Backend
	for i := 0; i < poolSize; i++ {
		inj, err := faults.New(netsplitBackendPlan(e.seed, i))
		if err != nil {
			return nil, err
		}
		rep := e.supervise(restartPolicy(), e.stormBoot(u, inj))
		out = append(out, fleet.NewBackend(fmt.Sprintf("vm%d", i), fleet.FromReport(rep)))
	}
	return out, nil
}

// netsplitRow drives one (pool, policy) pair through the wire storm;
// the hero row carries an SLO scope with the wire injector attached.
func (e *env) netsplitRow(o *output, name, policy string, backends []*fleet.Backend, hero bool) error {
	cfg := fleet.DefaultConfig()
	cfg.Seed = e.seed
	cfg.Policy = policy
	cfg.HashClients = 64
	cfg.Net.ResponseTimeout = 4 * simclock.Millisecond
	cfg.TrafficStart = simclock.Time(bootTime(backends) + simclock.Millisecond)
	winj, err := faults.New(netsplitWirePlan(e.seed, cfg.TrafficStart))
	if err != nil {
		return err
	}
	var sc *scoped
	if hero {
		track := "netsplit/" + name + "/" + policy
		sc = newScoped(track, winj,
			availabilityObjective(track, 0.99, slo.DefaultRules(simclock.Millisecond, 10, 4)),
			slo.Objective{Name: "latency", Hist: track + ".latency", Threshold: 2 * simclock.Millisecond,
				Target: 0.9, Rules: slo.DefaultRules(simclock.Millisecond, 5, 2)})
		winj.Observe(sc.tr, track)
	}
	wasUp := recovered(backends)
	res, f := e.runFleet(cfg, backends, winj, sc)
	o.fleetRow(name+"/"+policy, res, f.Net().Stats(), wasUp)
	if hero {
		o.sloRow(sc)
		o.hero = map[string]float64{"availability": res.Availability(), "p99_us": res.Percentile(99).Microseconds()}
	}
	return nil
}

// runNetsplit: lupine and lupine+mp redis pools, each backend
// supervised through its guest storm, behind a fleet under the wire
// storm for rr (both) and least-loaded and consistent-hash (lupine+mp),
// then the libos comparator pools.
func runNetsplit(e *env) (*output, error) {
	spec, err := appSpec("redis")
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name     string
		opts     core.BuildOpts
		policies []string
	}{
		{"lupine", core.BuildOpts{}, []string{fleet.PolicyRR}},
		{"lupine+mp", core.BuildOpts{ExtraOptions: []string{"MULTIPROCESS"}},
			[]string{fleet.PolicyRR, fleet.PolicyLeast, fleet.PolicyHash}},
	}
	o := &output{}
	for _, v := range variants {
		u, err := e.build(func() (*core.Unikernel, error) { return core.Build(e.db, spec, v.opts) })
		if err != nil {
			return nil, fmt.Errorf("netsplit: building %s: %w", v.name, err)
		}
		for _, policy := range v.policies {
			backends, err := e.netsplitBackends(u)
			if err != nil {
				return nil, err
			}
			hero := v.name == "lupine+mp" && policy == fleet.PolicyRR
			if err := e.netsplitRow(o, v.name, policy, backends, hero); err != nil {
				return nil, err
			}
		}
	}
	for _, s := range libos.All() {
		var backends []*fleet.Backend
		for i := 0; i < poolSize; i++ {
			backends = append(backends, fleet.NewBackend(fmt.Sprintf("vm%d", i), e.libosTimeline(s)))
		}
		if err := e.netsplitRow(o, s.Name, fleet.PolicyRR, backends, false); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// --- regionfail ---

// regionfailPlan: a host crash in r0 at 6 ms, a terminal blackout of r1
// at 10 ms, a 6 ms partition into r2 at 30 ms, and the fourth snapshot
// restore dying mid-flight.
func regionfailPlan(seed uint64) faults.Plan {
	return faults.Plan{
		Seed: seed ^ 0x4E610,
		Rules: []faults.Rule{
			{Site: region.SiteHostCrash, From: 6 * ms, To: 7 * ms, Prob: 1, Param: 1001},
			{Site: region.SiteBlackout, From: 10 * ms, To: 11 * ms, Prob: 1, Param: 2},
			{Site: fabric.SiteTrunkCut, From: 30 * ms, To: 36 * ms, Prob: 1, Param: region.CutInto(2)},
			{Site: snapshot.SiteRestoreFail, NthHit: 4},
		},
	}
}

func (e *env) regionfailRow(o *output, name string, cfg region.Config, hero bool) error {
	inj, err := faults.New(regionfailPlan(e.seed))
	if err != nil {
		return err
	}
	var sc *scoped
	if hero {
		track := "regionfail/" + name
		sc = newScoped(track, inj, regionAvailabilityObjective(track, cfg))
		inj.Observe(sc.tr, track)
	}
	res := e.runRegion(cfg, inj, sc)
	o.regionRow(name, res)
	if hero {
		o.sloRow(sc)
		o.hero = map[string]float64{"availability": res.Availability(), "detect_p99_us": res.DetectPercentile(99).Microseconds()}
	}
	return nil
}

// runRegionfail: one lupine+mp build and snapshot capture, then the
// three-region plane through the regional storm with a replicated warm
// pool (the scoped hero row), without one, and for each libos
// comparator.
func runRegionfail(e *env) (*output, error) {
	spec, err := appSpec("redis")
	if err != nil {
		return nil, err
	}
	u, err := e.build(func() (*core.Unikernel, error) {
		return core.Build(e.db, spec, core.BuildOpts{ExtraOptions: []string{"MULTIPROCESS"}})
	})
	if err != nil {
		return nil, fmt.Errorf("regionfail: building lupine+mp: %w", err)
	}
	snap, coldBoot, _, err := e.capture(u)
	if err != nil {
		return nil, fmt.Errorf("regionfail: capturing snapshot: %w", err)
	}
	config := func() region.Config {
		cfg := region.DefaultConfig()
		cfg.Seed = e.seed ^ 0x4E610F
		return cfg
	}
	o := &output{}
	cfg := config()
	cfg.Snapshot = snap
	cfg.Monitor = vmm.Firecracker()
	cfg.Replicate = true
	cfg.ColdBoot = coldBoot
	if err := e.regionfailRow(o, "lupine+mp", cfg, true); err != nil {
		return nil, err
	}
	cfg = config()
	cfg.ColdBoot = coldBoot
	if err := e.regionfailRow(o, "lupine+mp-cold", cfg, false); err != nil {
		return nil, err
	}
	for _, s := range libos.All() {
		cfg = config()
		cfg.ColdBoot = libosCrash(s).ReadyAfter
		cfg.Timeline = func(int, int) fleet.Timeline { return e.libosTimeline(s) }
		if err := e.regionfailRow(o, s.Name, cfg, false); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// --- catalog ---

// catalogIdents are the catalog images the mixed plane runs side by
// side, with their per-VM commits.
var catalogIdents = []struct {
	name  string
	app   string
	extra []string
	bytes int64
}{
	{"redis+mp", "redis", []string{"MULTIPROCESS"}, 96 << 20},
	{"nginx", "nginx", nil, 64 << 20},
	{"memcached", "memcached", nil, 48 << 20},
}

// farmPlan corrupts one artifact and spuriously rejects one spec in
// the redeploy batch.
func farmPlan(seed uint64) faults.Plan {
	return faults.Plan{
		Seed: seed ^ 0xCA7A,
		Rules: []faults.Rule{
			{Site: bunny.SiteSpecInvalid, NthHit: 25},
			{Site: bunny.SiteCacheCorrupt, NthHit: 3},
		},
	}
}

// catalogPlan: a host crash in r0, a terminal blackout of r1 and one
// restore falling back to a cold boot.
func catalogPlan(seed uint64) faults.Plan {
	return faults.Plan{
		Seed: seed ^ 0xCA7A106,
		Rules: []faults.Rule{
			{Site: region.SiteHostCrash, From: 6 * ms, To: 7 * ms, Prob: 1, Param: 1001},
			{Site: region.SiteBlackout, From: 10 * ms, To: 11 * ms, Prob: 1, Param: 2},
			{Site: snapshot.SiteRestoreFail, NthHit: 4},
		},
	}
}

type catalogIdent struct {
	name string
	art  *bunny.Artifact
	snap *snapshot.Snapshot
	boot simclock.Duration
}

// catalogConfig assembles the mixed-identity plane. warm attaches each
// identity's snapshot lineage; upgrades arms staggered per-identity
// rolling upgrades whose rebuilds compile the identity's v2 spec
// through the shared build cache.
func (e *env) catalogConfig(idents []catalogIdent, cache *bunny.Cache, warm, upgrades bool) region.Config {
	cfg := region.DefaultConfig()
	cfg.Seed = e.seed ^ 0xCA7A10F
	cfg.Monitor = vmm.Firecracker()
	cfg.Replicate = warm
	for i, id := range idents {
		rid := region.Identity{
			Name:     id.name,
			Kernel:   id.snap.Kernel,
			Monitor:  id.snap.Monitor,
			VMBytes:  catalogIdents[i].bytes,
			ColdBoot: id.boot,
		}
		if warm {
			rid.Snapshot = id.snap
		}
		cfg.Identities = append(cfg.Identities, rid)
	}
	if !upgrades {
		return cfg
	}
	for i, id := range idents {
		fi := catalogIdents[i]
		v2 := bunny.New(fi.app, append(append([]string{}, fi.extra...), "POSIX_MQUEUE")...)
		cfg.Upgrades = append(cfg.Upgrades, region.UpgradeSpec{
			Identity:     id.name,
			Start:        (20 + 15*simclock.Time(i)) * ms,
			DrainTimeout: 2 * simclock.Millisecond,
			Rebuild: func(int) simclock.Duration {
				art, err := e.compile(cache, v2)
				if err != nil {
					return 0
				}
				return art.Cost
			},
		})
	}
	return cfg
}

func (e *env) catalogRow(o *output, name string, cfg region.Config, hero bool) error {
	inj, err := faults.New(catalogPlan(e.seed))
	if err != nil {
		return err
	}
	var sc *scoped
	if hero {
		track := "catalog/" + name
		sc = newScoped(track, inj, regionAvailabilityObjective(track, cfg))
		inj.Observe(sc.tr, track)
	}
	res := e.runRegion(cfg, inj, sc)
	o.regionRow(name, res)
	if hero {
		o.sloRow(sc)
		o.hero = map[string]float64{"availability": res.Availability()}
	}
	return nil
}

// runCatalog: a fresh build cache; the top-20 catalog farm-built cold
// (every compile misses), then redeployed (nearly all hits); the three
// fleet identities compiled through the same cache and captured; then
// the mixed-identity plane through the regional storm warm with rolling
// upgrades (hero row), cold with upgrades, and per libos comparator.
func runCatalog(e *env) (*output, error) {
	cache := bunny.NewCache(e.db, 0)
	inj, err := faults.New(farmPlan(e.seed))
	if err != nil {
		return nil, err
	}
	f := farm.New(cache, 4, inj, nil, nil)
	specs := func() []*bunny.Spec {
		var out []*bunny.Spec
		for _, name := range apps.Names() {
			out = append(out, bunny.New(name))
		}
		return out
	}
	o := &output{}
	cold, err := e.farmRun(f, specs(), 0)
	if err != nil {
		return nil, fmt.Errorf("catalog: cold batch: %w", err)
	}
	redeploy, err := e.farmRun(f, specs(), simclock.Time(0).Add(cold.Makespan))
	if err != nil {
		return nil, fmt.Errorf("catalog: redeploy batch: %w", err)
	}
	for _, r := range []*farm.Result{cold, redeploy} {
		o.line("farm builds=%d makespan=%d serial=%d hits=%d misses=%d corrupt=%d invalid=%d kernel_builds=%d kernel_hits=%d",
			len(r.Builds), r.Makespan, r.Serial, r.Stats.Hits, r.Stats.Misses, r.Stats.CorruptRebuilds,
			r.Stats.InvalidRetries, r.Kernels.Builds, r.Kernels.Hits)
	}
	var idents []catalogIdent
	for _, fi := range catalogIdents {
		art, err := e.compile(cache, bunny.New(fi.app, fi.extra...))
		if err != nil {
			return nil, fmt.Errorf("catalog: identity %s: %w", fi.name, err)
		}
		snap, boot, mem, err := e.capture(art.Uni)
		if err != nil {
			return nil, fmt.Errorf("catalog: capturing %s: %w", fi.name, err)
		}
		o.line("identity %s digest=%s snapshot=%s boot=%d mem=%d", fi.name, art.Digest, snap.ID, boot, mem)
		idents = append(idents, catalogIdent{name: fi.name, art: art, snap: snap, boot: boot})
	}
	if err := e.catalogRow(o, "lupine-mixed", e.catalogConfig(idents, cache, true, true), true); err != nil {
		return nil, err
	}
	if err := e.catalogRow(o, "lupine-mixed-cold", e.catalogConfig(idents, cache, false, true), false); err != nil {
		return nil, err
	}
	for _, s := range libos.All() {
		cfg := e.catalogConfig(idents, cache, false, false)
		boot := libosCrash(s).ReadyAfter
		for i := range cfg.Identities {
			cfg.Identities[i].Snapshot = nil
			cfg.Identities[i].ColdBoot = boot
		}
		cfg.Timeline = func(int, int) fleet.Timeline { return e.libosTimeline(s) }
		if err := e.catalogRow(o, s.Name, cfg, false); err != nil {
			return nil, err
		}
	}
	st := cache.Stats()
	e.n.CacheHits, e.n.CacheMisses = st.Hits, st.Misses
	o.hero["hit_rate"] = redeploy.Stats.HitRate()
	return o, nil
}
