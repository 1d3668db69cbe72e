package experiments

// The chaos experiment: identical seeded fault storms against Lupine
// variants and the unikernel comparators, under a panic=reboot
// supervisor. The thesis being measured is the robustness side of "Linux
// in unikernel clothing": general-purpose mechanisms that specialized
// unikernels drop (fork, the OOM killer, panic=reboot) are exactly what
// turns a fault storm from an unrecovered crash into bounded-downtime
// degradation.

import (
	"errors"
	"fmt"

	"lupine/internal/core"
	"lupine/internal/ext2"
	"lupine/internal/faults"
	"lupine/internal/guest"
	"lupine/internal/libos"
	"lupine/internal/metrics"
	"lupine/internal/simclock"
	"lupine/internal/slo"
	"lupine/internal/telemetry"
	"lupine/internal/vmm"
)

func init() { chaosStorm.register() }

const chaosHogBytes = 160 * guest.MiB

// chaosPlan is the storm every system faces: two dead-on-arrival boots
// (device probe, then rootfs corruption), a memory spike while a hog
// process is resident, two failed page allocations, transient syscall
// noise, and loopback drops/delays. Windows are in guest virtual time;
// the From=2ms guard keeps faults out of the init script so every storm
// lands on the workload proper.
func chaosPlan(seed uint64) faults.Plan {
	const (
		ms = simclock.Time(simclock.Millisecond)
		mb = int64(guest.MiB)
	)
	return faults.Plan{
		Seed: seed,
		Rules: []faults.Rule{
			// Attempt 1 dies probing virtio; attempt 2 dies mounting a
			// rootfs whose block read comes back short.
			{Site: vmm.SiteDeviceProbe, NthHit: 1, Param: 2},
			{Site: ext2.SiteBlockRead, NthHit: 1, Param: -1},
			// A 350 MiB allocation spike while the memory hog is resident:
			// OOM-killed hog on MULTIPROCESS kernels, kernel panic without.
			{Site: guest.SiteOOMPressure, From: 4 * ms, To: 30 * ms, Prob: 1, Limit: 1, Param: 350 * mb},
			// Two page allocations fail outright (ENOMEM to the app).
			{Site: guest.SitePageAlloc, From: 34 * ms, To: 60 * ms, Prob: 1, Limit: 1},
			{Site: guest.SitePageAlloc, From: 62 * ms, To: 90 * ms, Prob: 1, Limit: 1},
			// Transient syscall noise on the read/write path, plus at most
			// one hard EIO whose landing spot (or absence) is the
			// seed-sensitive part of the storm.
			{Site: guest.SiteSyscallTransient, From: 2 * ms, Prob: 0.12, Limit: 4},
			{Site: guest.SiteSyscallTransient, From: 40 * ms, Prob: 0.03, Limit: 1, Param: 2},
			// Loopback weather: two retransmit-priced drops, sporadic delay.
			{Site: guest.SiteLoopbackDrop, From: 3 * ms, To: 40 * ms, Prob: 1, Limit: 1, Param: 300},
			{Site: guest.SiteLoopbackDrop, From: 50 * ms, To: 80 * ms, Prob: 1, Limit: 1, Param: 300},
			{Site: guest.SiteLoopbackDelay, From: 2 * ms, Prob: 0.2, Limit: 6, Param: 150},
		},
	}
}

// chaosPolicy is the supervisor's panic=reboot configuration: bounded
// restarts with exponential backoff, a boot watchdog, and crash-loop
// detection. CrashLoopBudget tolerates the storm's two dead-on-arrival
// boots.
func chaosPolicy() vmm.RestartPolicy {
	return vmm.RestartPolicy{
		MaxRestarts:     5,
		Backoff:         10 * simclock.Millisecond,
		BackoffFactor:   2,
		MaxBackoff:      80 * simclock.Millisecond,
		BootWatchdog:    500 * simclock.Millisecond,
		CrashLoopBudget: 3,
	}
}

// chaosCounters collects what the workload observed in one VM lifetime.
type chaosCounters struct {
	readyAt  simclock.Time // guest time when the service came up (-1: never)
	done     bool          // workload ran to completion
	degraded int           // operations that failed but were absorbed
}

// chaosWorkload is the guest program: a server that forks a short-lived
// memory hog and an echo client, then serves a loop of allocations and
// socket round-trips. Every fault it can absorb (ENOMEM, EINTR/EAGAIN,
// EIO, dropped segments) is counted as a degraded operation instead of
// dying — graceful degradation is precisely what the comparators lack.
func chaosWorkload(p *guest.Proc, c *chaosCounters) int {
	const echoPort = 7000
	retryRW := func(op func() (int, guest.Errno)) (int, guest.Errno) {
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
	c.readyAt = p.Kernel().Now()

	// A memory hog: resident long enough for the storm's pressure spike.
	hog, e := p.Fork(func(h *guest.Proc) int {
		if e := h.Alloc(chaosHogBytes); e != guest.OK {
			return 1
		}
		h.Nanosleep(40 * simclock.Millisecond)
		h.FreeMem(chaosHogBytes)
		return 0
	})
	if e != guest.OK {
		p.Println("chaos: fork failed")
		return 1
	}

	// An echo peer on loopback; it serves until EOF.
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
	echo, e := p.Fork(func(ch *guest.Proc) int {
		cfd, e := ch.Socket(guest.AFInet, guest.SockStream)
		if e != guest.OK {
			return 1
		}
		if e := ch.Connect(cfd, echoPort, ""); e != guest.OK {
			return 1
		}
		buf := make([]byte, 256)
		for {
			n, e := retryRW(func() (int, guest.Errno) { return ch.Read(cfd, buf) })
			if e != guest.OK || n == 0 {
				break
			}
			retryRW(func() (int, guest.Errno) { return ch.Write(cfd, buf[:n]) })
		}
		ch.Close(cfd)
		return 0
	})
	if e != guest.OK {
		p.Println("chaos: fork failed")
		return 1
	}
	afd, e := p.Accept(lfd)
	if e != guest.OK {
		return 1
	}

	// The serving loop: allocate, exchange a message, sleep. Faults
	// degrade individual operations; only a kernel panic stops the loop.
	msg := []byte("chaos-ping......................")
	reply := make([]byte, 256)
	for i := 0; i < 40; i++ {
		if e := p.Alloc(4 * guest.MiB); e != guest.OK {
			c.degraded++
		} else {
			p.FreeMem(4 * guest.MiB)
		}
		if _, e := retryRW(func() (int, guest.Errno) { return p.Write(afd, msg) }); e != guest.OK {
			c.degraded++
		} else if _, e := retryRW(func() (int, guest.Errno) { return p.Read(afd, reply) }); e != guest.OK {
			c.degraded++
		}
		p.Nanosleep(2 * simclock.Millisecond)
	}
	p.Close(afd)
	p.Close(lfd)
	p.Wait()
	p.Wait()
	_ = hog
	_ = echo
	p.Println("chaos: done")
	c.done = true
	return 0
}

// chaosBoot runs one supervised VM lifetime of u under the shared storm
// injector and classifies how it ended. Each lifetime boots a copy of u
// that runs the chaos workload, so u itself is left as it was.
func chaosBoot(u *core.Unikernel, inj *faults.Injector, counters *[]chaosCounters) vmm.BootFn {
	return func(attempt int) vmm.Attempt {
		c := chaosCounters{readyAt: -1}
		lifetime := *u
		// The workload records readiness and degraded operations through
		// the closure cell; Run's completion synchronizes the writes.
		lifetime.Spec.Program = func(p *guest.Proc, probeOnly bool) int {
			return chaosWorkload(p, &c)
		}
		vm, err := lifetime.Boot(core.BootOpts{Faults: inj})
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
			*counters = append(*counters, c)
			return att
		}
		runErr := vm.Run()
		*counters = append(*counters, c)

		att := vmm.Attempt{Ran: vm.Boot.Total + simclock.Duration(vm.Guest.Now())}
		bootRep := vm.Boot
		att.Telemetry = func(tr *telemetry.Tracer, track string, start simclock.Time) {
			bootRep.Observe(tr, track, start)
		}
		if c.readyAt >= 0 {
			att.Ready = true
			att.ReadyAfter = vm.Boot.Total + simclock.Duration(c.readyAt)
		}
		switch {
		case runErr == nil && c.done:
			att.Outcome = vmm.OutcomeOK
			att.Detail = fmt.Sprintf("%d ops degraded", c.degraded)
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

// chaosResult is one table row plus the assertions the tests check.
type chaosResult struct {
	System    string
	Report    vmm.SupervisorReport
	Degraded  int
	MultiProc bool

	scope *slo.Scope // SLO scope, set on the hero row only
}

func (r chaosResult) resultCell() string {
	switch {
	case r.Report.Recovered:
		return fmt.Sprintf("recovered (attempt %d)", len(r.Report.Attempts))
	case r.Report.CrashLoop:
		return "crash loop"
	default:
		return "unrecovered crash"
	}
}

var chaosStorm = &storm[chaosResult]{
	id:      "chaos",
	title:   "Fault injection: crash recovery under a seeded storm (robustness)",
	systems: []string{"lupine", "lupine+mp", "lupine-general", "microvm"},
	rows: func(env *Env, name string) ([]chaosResult, error) {
		u, err := redis(name)
		if err != nil {
			return nil, err
		}
		track := "chaos/" + name
		inj, err := faults.New(chaosPlan(env.Seed))
		if err != nil {
			return nil, err
		}
		// The hero row's SLO scope replays the supervised timeline:
		// every restart window burns the uptime budget, and the storm's
		// fires, landed on the row's trace, attribute the burns. The row
		// opens before the storm so the fires reach its tracer.
		var objs []slo.Objective
		if name == "lupine+mp" {
			objs = []slo.Objective{{
				Name:   "uptime",
				Good:   []string{track + ".up-ns"},
				Bad:    []string{track + ".down-ns"},
				Target: 0.9,
				Rules:  slo.DefaultRules(2*simclock.Millisecond, 5, 2),
			}}
		}
		row := env.row(track, inj, sloEvery, objs...)
		rep, counters := supervise(u, inj, row.tr, track)
		res := chaosResult{
			System:    name,
			Report:    rep,
			MultiProc: u.Kernel.Enabled("MULTIPROCESS"),
			scope:     row.scope,
		}
		for _, c := range counters {
			res.Degraded += c.degraded
		}
		if row.scope != nil {
			sloReplaySupervisor(row.scope, row.reg, track, rep)
			row.scope.Finish(rep.End)
		}
		return []chaosResult{res}, nil
	},
	// The unikernel comparators: no fork means the workload's first move
	// kills them, and their monitors have no restart story — the service
	// stays down for the rest of the storm.
	comparator: func(env *Env, s *libos.System) (chaosResult, error) {
		rep := env.superviseCrash(libosCrash(s, simclock.Millisecond), "chaos/"+s.Name)
		return chaosResult{System: s.Name, Report: rep}, nil
	},
	scope: func(r chaosResult) *slo.Scope { return r.scope },
	caption: func(seed uint64) string {
		return fmt.Sprintf("crash recovery under a seeded fault storm (seed %d)", seed)
	},
	columns: []string{"system", "result", "restarts", "availability", "mean recovery (ms)", "degraded ops", "detail"},
	cells: func(r chaosResult) []any {
		last := r.Report.Attempts[len(r.Report.Attempts)-1]
		return []any{r.System, r.resultCell(), r.Report.Restarts(), metrics.Percent(r.Report.Availability()),
			r.Report.MeanRecovery().Milliseconds(), r.Degraded, last.Detail}
	},
	notes: []string{
		"identical seeded storm per system: 2 dead boots (virtio probe, rootfs corruption), a 350 MiB memory spike, 2 failed page allocations, transient EINTR/EAGAIN/EIO, loopback drops/delays",
		"CONFIG_MULTIPROCESS turns the memory spike from a kernel panic into an OOM kill of the hog process: the service degrades instead of crashing",
		"unikernel monitors have no panic=reboot: the first unsupported operation is an unrecovered crash",
	},
}
