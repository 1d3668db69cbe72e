package experiments

// The skeleton the storms share: the storm type and its one runner,
// the observation wiring of one storm row (its telemetry and, on the
// hero row, its SLO scope), one region plane row, supervised pools, the
// snapshot capture every warm pool starts from, and the libos
// comparators' one doomed lifetime under the redis workload.

import (
	"fmt"

	"lupine/internal/core"
	"lupine/internal/faults"
	"lupine/internal/fleet"
	"lupine/internal/guest"
	"lupine/internal/libos"
	"lupine/internal/metrics"
	"lupine/internal/region"
	"lupine/internal/simclock"
	"lupine/internal/slo"
	"lupine/internal/snapshot"
	"lupine/internal/telemetry"
	"lupine/internal/vmm"
)

// A storm is one robustness experiment declared as data: its Linux
// systems in row order, how one system's rows run, how one libos
// comparator's row runs, each row's SLO scope (nil on unscoped rows),
// and its table: a caption built from the seed, the columns, one row of
// cells per result, and the notes. Every storm but catalog is one such
// value over the one runner below.
type storm[R any] struct {
	id, title  string
	systems    []string
	rows       func(env *Env, system string) ([]R, error)
	comparator func(env *Env, s *libos.System) (R, error)
	scope      func(R) *slo.Scope
	caption    func(seed uint64) string
	columns    []string
	cells      func(R) []any
	notes      []string
}

// run drives every system's rows in order, then one comparator row per
// libos.All() entry, and records the rows' non-nil scopes, in row
// order, as the storm's SLO report. An error returns at once and
// records no report. run is the tests' entry point.
func (s *storm[R]) run(env *Env) ([]R, error) {
	var out []R
	for _, sys := range s.systems {
		rows, err := s.rows(env, sys)
		if err != nil {
			return nil, err
		}
		out = append(out, rows...)
	}
	for _, c := range libos.All() {
		r, err := s.comparator(env, c)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	scopes := make([]*slo.Scope, len(out))
	for i, r := range out {
		scopes[i] = s.scope(r)
	}
	env.recordSLO(s.id, scopes...)
	return out, nil
}

// register registers the storm as an experiment that renders its table.
func (s *storm[R]) register() {
	registerStorm(s.id, s.title, func(env *Env) (fmt.Stringer, error) {
		rows, err := s.run(env)
		if err != nil {
			return nil, err
		}
		t := &metrics.Table{Title: s.caption(env.Seed), Columns: s.columns, Notes: s.notes}
		for _, r := range rows {
			t.AddRow(s.cells(r)...)
		}
		return t, nil
	})
}

// capture boots one clean VM of u on Firecracker in probe mode, runs it
// to completion and captures its snapshot. The boot is the one attempt
// of a no-restart supervisor observed on lane, so with a tracer its
// phases land on the trace; without one, and with a nil injector, it is
// the bare boot and run: the zero policy runs exactly one attempt, and
// the injector sees the same call sequence either way.
func capture(u *core.Unikernel, inj *faults.Injector, tr *telemetry.Tracer, lane string) (*core.VM, *snapshot.Snapshot, error) {
	mon := vmm.Firecracker()
	var (
		vm  *core.VM
		err error
	)
	sup := vmm.NewSupervisor(vmm.RestartPolicy{})
	sup.Observe(tr, lane)
	sup.Run(func(int) vmm.Attempt {
		if vm, err = u.Boot(core.BootOpts{Monitor: mon, ProbeOnly: true, Faults: inj}); err != nil {
			return vmm.Attempt{Outcome: vmm.OutcomeBootFail, Detail: err.Error()}
		}
		if err = vm.Run(); err != nil {
			return vmm.Attempt{Outcome: vmm.OutcomeHang, Detail: err.Error()}
		}
		return vmm.Attempt{
			Outcome:    vmm.OutcomeOK,
			Ready:      true,
			ReadyAfter: vm.Boot.Total,
			Ran:        vm.Boot.Total + simclock.Duration(vm.Guest.Now()),
			Telemetry:  vm.Boot.Observe,
		}
	})
	if err != nil {
		return nil, nil, err
	}
	snap, err := snapshot.Capture(u.Kernel, mon, vm.Boot, vm.Guest)
	return vm, snap, err
}

// A stormRow is one storm row's observation wiring: the tracer and
// registry its plane feeds and, on the scoped hero row, the SLO scope
// sampling them.
type stormRow struct {
	track string
	tr    *telemetry.Tracer
	reg   *telemetry.Registry
	scope *slo.Scope // nil unless the row is scoped
}

// row wires storm row track to env's telemetry plane and lands inj's
// fire instants on it. Objectives make it the scoped row: an SLO scope
// samples them every `every` and ranks inj's fires as root causes. A
// scoped row feeds env's tracer and registry when set and private ones
// otherwise, so its SLO report is the same with telemetry on or off.
// Open the row before inj's first Hit.
func (env *Env) row(track string, inj *faults.Injector, every simclock.Duration, objs ...slo.Objective) stormRow {
	r := stormRow{track: track, tr: env.Trace, reg: env.Metrics}
	if len(objs) == 0 {
		inj.Observe(r.tr, track)
		return r
	}
	if r.tr == nil {
		r.tr = telemetry.New()
	}
	if r.reg == nil {
		r.reg = telemetry.NewRegistry()
	}
	r.scope = slo.NewScope(track, r.reg, r.tr, every)
	for _, o := range objs {
		r.scope.Add(o)
	}
	r.scope.SetInjector(inj)
	return r
}

// A plane is what a storm row drives: a fleet or a region plane.
type plane[R any] interface {
	Observe(tr *telemetry.Tracer, reg *telemetry.Registry, track string)
	Clock() *simclock.Clock
	Run() R
}

// runRow drives p under r: p feeds r's telemetry, and r's scope samples
// p's clock and closes when the run ends.
func runRow[R any](r stormRow, p plane[R]) R {
	p.Observe(r.tr, r.reg, r.track)
	r.scope.Bind(p.Clock())
	res := p.Run()
	r.scope.Finish(p.Clock().Now())
	return res
}

// runRegion drives a region plane of cfg through plan's storm on row
// track: it builds the plan's injector, opens the row with the caller's
// sample interval and objectives, and runs region.New(cfg, inj) under
// it.
func (env *Env) runRegion(track string, plan faults.Plan, cfg region.Config, every simclock.Duration, objs ...slo.Objective) (region.Result, stormRow, error) {
	inj, err := faults.New(plan)
	if err != nil {
		return region.Result{}, stormRow{}, err
	}
	row := env.row(track, inj, every, objs...)
	return runRow(row, region.New(cfg, inj)), row, nil
}

// supervise runs u's VM lifetimes through inj's storm under the chaos
// panic=reboot policy, observed on lane of tr, and returns the
// supervisor's report with what each lifetime's workload saw.
func supervise(u *core.Unikernel, inj *faults.Injector, tr *telemetry.Tracer, lane string) (vmm.SupervisorReport, []chaosCounters) {
	var counters []chaosCounters
	sup := vmm.NewSupervisor(chaosPolicy())
	sup.Observe(tr, lane)
	return sup.Run(chaosBoot(u, inj, &counters)), counters
}

// linuxPool supervises fleetPoolSize fresh VMs of u, backend i through
// plan(seed, i)'s storm on lane track/vmI of env's tracer, and wraps
// the reports as pool members.
func (env *Env) linuxPool(u *core.Unikernel, track string, plan func(seed uint64, i int) faults.Plan) ([]*fleet.Backend, error) {
	var out []*fleet.Backend
	for i := 0; i < fleetPoolSize; i++ {
		inj, err := faults.New(plan(env.Seed, i))
		if err != nil {
			return nil, err
		}
		lane := fmt.Sprintf("%s/vm%d", track, i)
		inj.Observe(env.Trace, lane)
		rep, _ := supervise(u, inj, env.Trace, lane)
		out = append(out, fleet.NewBackend(fmt.Sprintf("vm%d", i), fleet.FromReport(rep)))
	}
	return out, nil
}

// libosBoot is comparator s's measured redis boot, 10 ms where the
// model has none.
func libosBoot(s *libos.System) simclock.Duration {
	if bt, err := s.BootTime("redis"); err == nil {
		return bt
	}
	return 10 * simclock.Millisecond
}

// libosFootprint is comparator s's redis memory footprint, 64 MiB where
// the model has none.
func libosFootprint(s *libos.System) int64 {
	if fp, err := s.MemoryFootprint("redis"); err == nil {
		return fp
	}
	return 64 * guest.MiB
}

// libosCrash is the one lifetime comparator s gets under the redis
// workload: ready after its boot, dead of the workload's first fork
// serve later.
func libosCrash(s *libos.System, serve simclock.Duration) vmm.Attempt {
	boot := libosBoot(s)
	return vmm.Attempt{
		Outcome:    vmm.OutcomePanic,
		Ready:      true,
		ReadyAfter: boot,
		Ran:        boot + serve,
		Detail:     s.Fork().Error(),
	}
}

// superviseCrash runs crash under a monitor with no restart story,
// observed on lane.
func (env *Env) superviseCrash(crash vmm.Attempt, lane string) vmm.SupervisorReport {
	sup := vmm.NewSupervisor(vmm.RestartPolicy{})
	sup.Observe(env.Trace, lane)
	return sup.Run(func(int) vmm.Attempt { return crash })
}

// libosPool is a fleetPoolSize pool whose members each live crash once,
// on lanes track/vmI.
func (env *Env) libosPool(crash vmm.Attempt, track string) []*fleet.Backend {
	var out []*fleet.Backend
	for i := 0; i < fleetPoolSize; i++ {
		rep := env.superviseCrash(crash, fmt.Sprintf("%s/vm%d", track, i))
		out = append(out, fleet.NewBackend(fmt.Sprintf("vm%d", i), fleet.FromReport(rep)))
	}
	return out
}

// libosTimeline gives every slot of a region plane crash's one
// lifetime, on lanes track/rR/vmV.
func (env *Env) libosTimeline(crash vmm.Attempt, track string) func(ri, vi int) fleet.Timeline {
	return func(ri, vi int) fleet.Timeline {
		return fleet.FromReport(env.superviseCrash(crash, fmt.Sprintf("%s/r%d/vm%d", track, ri, vi)))
	}
}
