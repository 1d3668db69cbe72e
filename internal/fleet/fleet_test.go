package fleet

import (
	"fmt"
	"testing"

	"lupine/internal/fabric"
	"lupine/internal/faults"
	"lupine/internal/simclock"
	"lupine/internal/vmm"
)

// checkConservation asserts every offered request resolved exactly once
// and every connection the run dialed ended closed.
func checkConservation(t *testing.T, f *Fleet, res Result) {
	t.Helper()
	if st := f.Net().Stats(); st.Dialed != st.Closed {
		t.Errorf("connections left open: dialed %d, closed %d", st.Dialed, st.Closed)
	}
	if got := res.OK + res.Shed + res.Failed; got != res.Total {
		t.Errorf("request conservation broken: OK %d + Shed %d + Failed %d = %d, want %d",
			res.OK, res.Shed, res.Failed, got, res.Total)
	}
}

func TestHealthyPoolServesEverything(t *testing.T) {
	cfg := DefaultConfig()
	f := New(cfg, []*Backend{
		NewBackend("a", AlwaysUp()),
		NewBackend("b", AlwaysUp()),
		NewBackend("c", AlwaysUp()),
	}, nil, nil)
	res := f.Run()
	checkConservation(t, f, res)
	if res.OK != res.Total {
		t.Errorf("served %d of %d on a healthy pool", res.OK, res.Total)
	}
	if res.Shed != 0 || res.Retries != 0 || res.BreakerOpens != 0 {
		t.Errorf("healthy pool saw shed=%d retries=%d opens=%d, want zeros",
			res.Shed, res.Retries, res.BreakerOpens)
	}
	if p50, p99 := res.Percentile(50), res.Percentile(99); p50 <= 0 || p99 < p50 {
		t.Errorf("implausible latency percentiles p50=%v p99=%v", p50, p99)
	}
}

// TestOutageRoutedAround drops one backend mid-run: the pool has spare
// capacity, so health checks and the breaker steer traffic away and
// almost everything is still served.
func TestOutageRoutedAround(t *testing.T) {
	flaky := Timeline{
		Up:      []Interval{{From: 0, To: simclock.Time(20 * ms)}},
		End:     simclock.Time(60 * ms),
		UpAfter: true,
	}
	cfg := DefaultConfig()
	f := New(cfg, []*Backend{
		NewBackend("a", AlwaysUp()),
		NewBackend("b", AlwaysUp()),
		NewBackend("c", flaky),
	}, nil, nil)
	res := f.Run()
	checkConservation(t, f, res)
	if res.BreakerOpens == 0 {
		t.Error("the outage never tripped the breaker")
	}
	if res.Retries == 0 {
		t.Error("no retries despite failures during the outage")
	}
	if avail := res.Availability(); avail < 0.97 {
		t.Errorf("availability %.3f with 2/3 healthy capacity, want >= 0.97", avail)
	}
	c := f.Backends()[2]
	if c.Served() == 0 || c.Failed() == 0 {
		t.Errorf("flaky backend served=%d failed=%d, want both nonzero", c.Served(), c.Failed())
	}
}

// TestDeadPoolShedsInsteadOfAmplifying starves the fleet completely: a
// bounded queue plus the retry budget must shed load with every request
// accounted, rather than retrying forever.
func TestDeadPoolShedsInsteadOfAmplifying(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Requests = 500
	f := New(cfg, []*Backend{
		NewBackend("a", NeverUp()),
		NewBackend("b", NeverUp()),
	}, nil, nil)
	res := f.Run()
	checkConservation(t, f, res)
	if res.OK != 0 {
		t.Errorf("served %d requests on a dead pool", res.OK)
	}
	if res.Shed == 0 {
		t.Error("bounded queue never shed on a dead pool")
	}
	// Breakers and health checks stop the dispatch storm, so retries stay
	// far below offered load even before the budget engages.
	if res.Retries > res.Total/2 {
		t.Errorf("retries %d against %d offered requests: the storm amplified", res.Retries, res.Total)
	}
}

// TestRetryBudgetBoundsAmplification disables the breaker and the health
// checker so every request dispatches and fails: the fleet-wide token
// budget is the last line against retry amplification. With no successes
// there is no refill, so retries are capped at exactly the burst.
func TestRetryBudgetBoundsAmplification(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Requests = 500
	cfg.Breaker.FailThreshold = 1 << 30
	cfg.ProbeFailAfter = 1 << 30
	f := New(cfg, []*Backend{
		NewBackend("a", NeverUp()),
		NewBackend("b", NeverUp()),
	}, nil, nil)
	res := f.Run()
	checkConservation(t, f, res)
	if res.Retries != int(retryBurst) {
		t.Errorf("retries = %d, want exactly the burst %v (no refill without successes)",
			res.Retries, retryBurst)
	}
	if res.BudgetDenied == 0 {
		t.Error("retry budget never engaged")
	}
	if res.BreakerOpens != 0 {
		t.Errorf("breaker opened %d times with the threshold disabled", res.BreakerOpens)
	}
}

func TestTimelineFromReport(t *testing.T) {
	rep := vmm.Supervise(vmm.RestartPolicy{MaxRestarts: 2, Backoff: 10 * ms}, func(attempt int) vmm.Attempt {
		switch attempt {
		case 1:
			return vmm.Attempt{Outcome: vmm.OutcomePanic, Ready: true, ReadyAfter: 5 * ms, Ran: 25 * ms}
		case 2:
			return vmm.Attempt{Outcome: vmm.OutcomeBootFail, Ran: 3 * ms}
		default:
			return vmm.Attempt{Outcome: vmm.OutcomeOK, Ready: true, ReadyAfter: 5 * ms, Ran: 45 * ms}
		}
	})
	tl := FromReport(rep)
	// Timeline: up [5,25), down through backoff+dead boot, up [53,93),
	// recovered => up forever after End=93.
	cases := []struct {
		at   simclock.Duration
		want bool
	}{
		{0, false}, {5 * ms, true}, {24 * ms, true}, {25 * ms, false},
		{40 * ms, false}, {53 * ms, true}, {92 * ms, true}, {93 * ms, true}, {500 * ms, true},
	}
	for _, c := range cases {
		if got := tl.UpAt(simclock.Time(c.at)); got != c.want {
			t.Errorf("UpAt(%v) = %v, want %v", c.at, got, c.want)
		}
	}
	if tl.Stats.Restarts != 2 || tl.Stats.Panics != 1 || tl.Stats.BootFails != 1 || tl.Stats.OKs != 1 {
		t.Errorf("timeline stats = %+v", tl.Stats)
	}
}

// TestRollingUpgradeInvariant runs a rollout over a serving pool: the
// structurally active count must never fall below the original pool size
// (the surge pays for every drain), every original backend must be
// replaced, and service must continue throughout.
func TestRollingUpgradeInvariant(t *testing.T) {
	cfg := DefaultConfig()
	plan := &UpgradePlan{
		Start:        simclock.Time(10 * ms),
		BootTime:     2 * ms,
		DrainTimeout: 5 * ms,
		RebuildTime:  func(i int) simclock.Duration { return 3 * ms },
		Surge:        AlwaysUp(),
	}
	f := New(cfg, []*Backend{
		NewBackend("a", AlwaysUp()),
		NewBackend("b", AlwaysUp()),
		NewBackend("c", AlwaysUp()),
	}, plan, nil)
	res := f.Run()
	checkConservation(t, f, res)
	if res.MinActive < 3 {
		t.Errorf("active backends dipped to %d during the rollout, want >= 3 by construction", res.MinActive)
	}
	if !f.upgraded {
		t.Error("rollout never completed")
	}
	var names []string
	retired := 0
	for _, b := range f.Backends() {
		names = append(names, b.Name)
		if b.retired {
			retired++
		}
	}
	// Original a,b,c plus surge all retired; replacements a+v2,b+v2,c+v2 remain.
	if retired != 4 {
		t.Errorf("retired %d backends (%v), want 4 (a,b,c,surge)", retired, names)
	}
	for _, want := range []string{"a+v2", "b+v2", "c+v2", "surge"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("no %s in pool %v", want, names)
		}
	}
	if avail := res.Availability(); avail < 0.99 {
		t.Errorf("availability %.3f during a healthy rollout, want >= 0.99", avail)
	}
}

// TestFleetDeterministicWithFaultPlan replays a full run — flaky
// backends, fleet-plane probe/dispatch drops, rolling upgrade — twice
// and requires identical results.
func TestFleetDeterministicWithFaultPlan(t *testing.T) {
	flaky := Timeline{
		Up:      []Interval{{From: 0, To: simclock.Time(15 * ms)}, {From: simclock.Time(25 * ms), To: simclock.Time(70 * ms)}},
		End:     simclock.Time(70 * ms),
		UpAfter: true,
	}
	run := func() string {
		cfg := DefaultConfig()
		inj := faults.MustNew(faults.Plan{
			Seed: 77,
			Rules: []faults.Rule{
				{Site: SiteProbeDrop, Prob: 0.05},
				{Site: SiteDispatchDrop, From: simclock.Time(30 * ms), To: simclock.Time(50 * ms), Prob: 0.02},
			},
		})
		plan := &UpgradePlan{
			Start:        simclock.Time(40 * ms),
			BootTime:     2 * ms,
			DrainTimeout: 5 * ms,
			Surge:        AlwaysUp(),
		}
		f := New(cfg, []*Backend{
			NewBackend("a", flaky),
			NewBackend("b", AlwaysUp()),
			NewBackend("c", AlwaysUp()),
		}, plan, inj)
		res := f.Run()
		checkConservation(t, f, res)
		return fmt.Sprintf("%+v", res)
	}
	first, second := run(), run()
	if first != second {
		t.Errorf("fleet run not deterministic:\n--- first\n%s\n--- second\n%s", first, second)
	}
}

// resolveFunc adapts a function to Resolver.
type resolveFunc func(o Outcome, at simclock.Time)

func (fn resolveFunc) Resolved(o Outcome, at simclock.Time) { fn(o, at) }

// TestAttachedClockIsOwners: an attached cell runs on its owner's engine,
// so Clock is the owner's clock — never nil — and a sampler bound
// through the cell fires as the owner drives time. The owner resolves
// every injected request exactly once.
func TestAttachedClockIsOwners(t *testing.T) {
	cfg := DefaultConfig()
	eng := simclock.NewEngine()
	f := NewAttached(cfg, eng, fabric.New(FabricParams(cfg), eng, nil), "cell")
	if f.Clock() != eng.Clock() {
		t.Fatalf("attached Clock() = %p, want the owner's %p", f.Clock(), eng.Clock())
	}
	var samples []simclock.Time
	f.Clock().Sample(ms, func(now simclock.Time) { samples = append(samples, now) })

	f.Admit(NewBackend("a", AlwaysUp()), 0)
	f.Start(0)
	const n = 20
	outcomes := 0
	for i := 0; i < n; i++ {
		eng.Schedule(simclock.Time(i)*simclock.Time(100*us), func(now simclock.Time) {
			f.Inject(i, now, resolveFunc(func(Outcome, simclock.Time) { outcomes++ }))
		})
	}
	eng.Schedule(simclock.Time(5*ms), func(simclock.Time) { f.Stop() })
	eng.Run()

	if len(samples) < 5 || samples[0] != simclock.Time(ms) {
		t.Fatalf("sampler bound through the cell fired at %v, want every 1ms from 1ms", samples)
	}
	res := f.Finish(eng.Now())
	checkConservation(t, f, res)
	if res.Total != n || outcomes != n || f.Resolved() != n {
		t.Fatalf("total %d, outcomes %d, resolved %d; want %d each", res.Total, outcomes, f.Resolved(), n)
	}
}

// TestDispatchAllocations pins the per-request allocations of the
// dispatch hot path: an attached cell on a clean wire serving one
// request end to end costs the request and its Conn (Latencies grows
// amortized); the backend's serving slot is the request continuation
// and the service-completion event. Allocation counts are
// deterministic, so any extra allocation per request fails here.
func TestDispatchAllocations(t *testing.T) {
	cfg := DefaultConfig()
	eng := simclock.NewEngine()
	f := NewAttached(cfg, eng, fabric.New(FabricParams(cfg), eng, nil), "cell")
	f.Admit(NewBackend("a", AlwaysUp()), 0)
	id := 0
	serve := func() {
		id++
		now := eng.Now()
		f.Inject(id, now, nil)
		eng.RunUntil(now.Add(5 * ms))
	}
	serve() // grow the engine queue and fill the segment free list
	allocs := testing.AllocsPerRun(100, serve)
	if res := f.Finish(eng.Now()); res.OK != id {
		t.Fatalf("served %d of %d requests: %+v", res.OK, id, res)
	}
	if allocs > 2 {
		t.Fatalf("%v allocations per request, want at most 2", allocs)
	}
}

// TestRunAllocationsPerRequest pins one whole standalone run — New, the
// arrival source, every dispatch and every heartbeat — at its
// allocations per request: the request and its Conn, plus the setup
// spread over the run's requests. Heartbeats allocate nothing once the
// probe free list holds a record per probe in flight.
func TestRunAllocationsPerRequest(t *testing.T) {
	cfg := DefaultConfig()
	var res Result
	allocs := testing.AllocsPerRun(1, func() {
		pool := []*Backend{NewBackend("a", AlwaysUp()), NewBackend("b", AlwaysUp()), NewBackend("c", AlwaysUp())}
		res = New(cfg, pool, nil, nil).Run()
	})
	if res.OK != cfg.Requests {
		t.Fatalf("served %d of %d requests: %+v", res.OK, cfg.Requests, res)
	}
	if per := allocs / float64(cfg.Requests); per > 2.1 {
		t.Fatalf("%.3f allocations per request over a whole run, want at most 2.1", per)
	}
}

// A standalone fleet queues arrival i+1 when arrival i lands, so a
// jitter wider than the gap between arrivals, which could reorder them,
// is refused at construction.
func TestNewRejectsJitterWiderThanInterarrival(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ArrivalJitter = cfg.Interarrival
	New(cfg, nil, nil, nil) // equal is fine: arrival i+1 still lands after arrival i
	cfg.ArrivalJitter = cfg.Interarrival + 1
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted an ArrivalJitter wider than Interarrival")
		}
	}()
	New(cfg, nil, nil, nil)
}
