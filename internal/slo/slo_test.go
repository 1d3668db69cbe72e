package slo

import (
	"bytes"
	"slices"
	"testing"

	"lupine/internal/faults"
	"lupine/internal/simclock"
	"lupine/internal/telemetry"
)

const usec = simclock.Microsecond

// driveRatio runs a scripted good/bad schedule through a scope on a
// uniform grid: at sample i (time (i+1)*every) the counters have
// accumulated the prefix sums of goods/bads.
func driveRatio(t *testing.T, o Objective, every simclock.Duration, goods, bads []int64) *Scope {
	t.Helper()
	reg := telemetry.NewRegistry()
	s := NewScope("test", reg, nil, every)
	s.Add(o)
	g := reg.Counter("test.good")
	b := reg.Counter("test.bad")
	now := simclock.Time(0)
	for i := range goods {
		g.Add(goods[i])
		b.Add(bads[i])
		now = now.Add(every)
		s.Sample(now)
	}
	s.Finish(now)
	return s
}

// sref takes an addressable copy of the scope report so the pointer
// helper methods are callable in tests.
// near compares burns with float tolerance: burn math divides by
// (1-target), which is not exactly representable.
func near(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-6*(1+b)
}

func sref(s *Scope) *ScopeReport {
	r := s.Report()
	return &r
}

func availability(rules []BurnRule) Objective {
	return Objective{
		Name: "availability", Good: []string{"test.good"}, Bad: []string{"test.bad"},
		Target: 0.99, Rules: rules,
	}
}

func TestBurnAlertFiresAndClears(t *testing.T) {
	// 100% bad for 4 samples mid-stream: burn = 1/(1-0.99) = 100 over
	// any window covering only bad samples.
	rules := []BurnRule{{Name: "fast", Long: 200 * usec, Short: 100 * usec, MaxBurn: 50}}
	goods := []int64{10, 10, 0, 0, 0, 0, 10, 10, 10, 10, 10, 10}
	bads := []int64{0, 0, 10, 10, 10, 10, 0, 0, 0, 0, 0, 0}
	s := driveRatio(t, availability(rules), 100*usec, goods, bads)
	obj := sref(s).Objective("availability")
	if obj == nil {
		t.Fatal("no availability objective in report")
	}
	if obj.Fired() != 1 {
		t.Fatalf("fired %d alerts, want 1: %+v", obj.Fired(), obj.Alerts)
	}
	a := obj.FirstAlert()
	// Bad samples land at 300..600µs; the short window (one sample) is
	// all-bad from the 300µs sample, the long (two samples) crosses
	// MaxBurn=50 at 400µs.
	if a.AtUS != 400 {
		t.Fatalf("alert at %vµs, want 400", a.AtUS)
	}
	if a.ClearedAtUS < 0 {
		t.Fatal("alert never cleared")
	}
	if !near(obj.Rules[0].WorstBurn, 100) {
		t.Fatalf("worst burn %v, want ~100", obj.Rules[0].WorstBurn)
	}
	if obj.Good != 80 || obj.Bad != 40 {
		t.Fatalf("final good/bad = %d/%d, want 80/40", obj.Good, obj.Bad)
	}
}

func TestWindowShorterThanSampleIntervalUsesLastDelta(t *testing.T) {
	// Long window 10µs against a 100µs sample interval: burn must fall
	// back to the single-sample delta instead of reading an empty
	// window forever.
	rules := []BurnRule{{Name: "tiny", Long: 10 * usec, Short: 10 * usec, MaxBurn: 50}}
	goods := []int64{10, 0}
	bads := []int64{0, 10}
	s := driveRatio(t, availability(rules), 100*usec, goods, bads)
	obj := sref(s).Objective("availability")
	if obj.Fired() != 1 {
		t.Fatalf("fired %d, want 1 (window shorter than interval must still see the bad sample)", obj.Fired())
	}
	if !near(obj.Rules[0].WorstBurn, 100) {
		t.Fatalf("worst burn %v, want ~100", obj.Rules[0].WorstBurn)
	}
}

func TestEmptyWindowsAtStartBurnNothing(t *testing.T) {
	// No traffic at all for the first five samples, then clean traffic:
	// empty windows must read burn 0, not NaN or a false alert.
	rules := DefaultRules(200*usec, 10, 2)
	goods := []int64{0, 0, 0, 0, 0, 10, 10, 10}
	bads := []int64{0, 0, 0, 0, 0, 0, 0, 0}
	s := driveRatio(t, availability(rules), 100*usec, goods, bads)
	obj := sref(s).Objective("availability")
	if obj.Fired() != 0 {
		t.Fatalf("fired %d alerts on an empty-then-clean stream", obj.Fired())
	}
	for _, r := range obj.Rules {
		if r.WorstBurn != 0 {
			t.Fatalf("rule %s worst burn %v, want 0", r.Name, r.WorstBurn)
		}
	}
}

func TestNeverIncrementingCountersStayVacuouslyCompliant(t *testing.T) {
	rules := DefaultRules(200*usec, 10, 2)
	s := driveRatio(t, availability(rules), 100*usec, make([]int64, 8), make([]int64, 8))
	obj := sref(s).Objective("availability")
	if obj.Good != 0 || obj.Bad != 0 {
		t.Fatalf("good/bad = %d/%d, want 0/0", obj.Good, obj.Bad)
	}
	if obj.Compliance != 1 || obj.ErrorBudgetUsed != 0 {
		t.Fatalf("compliance %v budget %v, want vacuous 1/0", obj.Compliance, obj.ErrorBudgetUsed)
	}
	if obj.Fired() != 0 {
		t.Fatalf("fired %d alerts with no events at all", obj.Fired())
	}
}

func TestLatencySLIWindowsBucketDeltas(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewScope("test", reg, nil, 100*usec)
	s.Add(Objective{
		Name: "latency", Hist: "test.latency", Threshold: 1 * simclock.Millisecond,
		Target: 0.9, Rules: []BurnRule{{Name: "fast", Long: 100 * usec, Short: 100 * usec, MaxBurn: 5}},
	})
	h := reg.Histogram("test.latency")
	// Sample 1: all fast. Sample 2: all slow -> windowed bad fraction 1,
	// burn 1/(1-0.9) = 10 >= 5.
	for i := 0; i < 10; i++ {
		h.Observe(10 * usec)
	}
	s.Sample(simclock.Time(100 * usec))
	for i := 0; i < 10; i++ {
		h.Observe(5 * simclock.Millisecond)
	}
	s.Sample(simclock.Time(200 * usec))
	s.Finish(simclock.Time(200 * usec))
	obj := sref(s).Objective("latency")
	if obj.Fired() != 1 {
		t.Fatalf("fired %d, want 1", obj.Fired())
	}
	if obj.Good != 10 || obj.Bad != 10 {
		t.Fatalf("good/bad = %d/%d, want 10/10", obj.Good, obj.Bad)
	}
	if !near(obj.Rules[0].WorstBurn, 10) {
		t.Fatalf("worst burn %v, want ~10", obj.Rules[0].WorstBurn)
	}
}

// Registered at init, not inside the test: -count=2 reruns tests in the
// same process and RegisterSite panics on duplicates.
var sloTestSite = faults.RegisterSite("slotest/break", "slotest", "test-only site")

func TestIncidentAttributesInjectedFaultFirst(t *testing.T) {
	site := sloTestSite
	reg := telemetry.NewRegistry()
	tr := telemetry.New()
	s := NewScope("row", reg, tr, 100*usec)
	inj := faults.MustNew(faults.Plan{Seed: 1, Rules: []faults.Rule{{Site: site, NthHit: 1}}})
	s.SetInjector(inj)
	s.Add(Objective{
		Name: "availability", Good: []string{"row.good"}, Bad: []string{"row.bad"},
		Target: 0.99, Rules: []BurnRule{{Name: "fast", Long: 100 * usec, Short: 100 * usec, MaxBurn: 50}},
	})
	g, b := reg.Counter("row.good"), reg.Counter("row.bad")

	g.Add(10)
	s.Sample(simclock.Time(100 * usec))
	// The fault fires, and the plane logs collateral damage on the
	// scope's track plus noise on an unrelated track.
	inj.Hit(site, simclock.Time(150*usec))
	tr.Instant("fleet", "row/vm0", "health:down", simclock.Time(160*usec))
	tr.Instant("fleet", "other/vm9", "health:down", simclock.Time(165*usec))
	tr.Instant("fleet", "row/vm0", "admit", simclock.Time(170*usec)) // not cause-grade
	b.Add(10)
	s.Sample(simclock.Time(200 * usec))
	s.Finish(simclock.Time(200 * usec))

	obj := sref(s).Objective("availability")
	if len(obj.Incidents) != 1 {
		t.Fatalf("incidents = %+v, want exactly 1", obj.Incidents)
	}
	in := obj.Incidents[0]
	if len(in.Causes) != 2 {
		t.Fatalf("causes = %+v, want fault + one event", in.Causes)
	}
	if in.Causes[0].Kind != "fault" || in.Causes[0].Name != site {
		t.Fatalf("top cause = %+v, want the injected fault %s", in.Causes[0], site)
	}
	if in.Causes[1].Name != "fleet/health:down" || in.Causes[1].Count != 1 {
		t.Fatalf("second cause = %+v, want the on-track health:down only", in.Causes[1])
	}
	if !obj.HasCause(site) {
		t.Fatal("HasCause misses the fault site")
	}
}

// A fire is a fault cause only on the scope's own track: a sub-lane's
// fires come from another injector, such as a pool member's boot storm,
// and rank nowhere, while the sub-lane's plane events still rank.
func TestIncidentRanksOnlyFiresOnTheScopeTrack(t *testing.T) {
	reg, tr := telemetry.NewRegistry(), telemetry.New()
	s := NewScope("row", reg, tr, 100*usec)
	own := faults.MustNew(faults.Plan{Rules: []faults.Rule{{Site: sloTestSite, NthHit: 1}}})
	s.SetInjector(own)
	member := faults.MustNew(faults.Plan{Rules: []faults.Rule{{Site: sloTestSite2, NthHit: 1}}})
	member.Observe(tr, "row/vm0")
	s.Add(Objective{
		Name: "availability", Good: []string{"row.good"}, Bad: []string{"row.bad"},
		Target: 0.99, Rules: []BurnRule{{Name: "fast", Long: 100 * usec, Short: 100 * usec, MaxBurn: 50}},
	})
	reg.Counter("row.good").Add(10)
	s.Sample(simclock.Time(100 * usec))
	own.Hit(sloTestSite, simclock.Time(150*usec))
	tr.Instant("fleet", "row/vm0", "health:down", simclock.Time(160*usec))
	member.Hit(sloTestSite2, simclock.Time(170*usec)) // the most recent, yet no cause
	reg.Counter("row.bad").Add(10)
	s.Sample(simclock.Time(200 * usec))

	in := s.Incidents()
	want := []Cause{
		{Kind: "fault", Name: sloTestSite, Count: 1, LastAt: simclock.Time(150 * usec)},
		{Kind: "event", Name: "fleet/health:down", Count: 1, LastAt: simclock.Time(160 * usec)},
	}
	if len(in) != 1 || !slices.Equal(in[0].Causes, want) {
		t.Fatalf("incidents = %+v, want one with causes %+v", in, want)
	}
}

func TestScopeBoundToClockSamplesDuringAdvance(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewScope("test", reg, nil, 100*usec)
	s.Add(availability(DefaultRules(200*usec, 10, 2)))
	clk := simclock.New()
	s.Bind(clk)
	reg.Counter("test.good").Add(5)
	clk.AdvanceTo(simclock.Time(350 * usec))
	s.Finish(clk.Now())
	rep := s.Report()
	if rep.Samples != 3 {
		t.Fatalf("samples = %d, want 3 (100/200/300µs boundaries)", rep.Samples)
	}
	if rep.EndUS != 350 {
		t.Fatalf("end = %vµs, want 350", rep.EndUS)
	}
}

// An unscoped row passes a nil scope through the same calls as a scoped
// one: Bind must register nothing on the clock and Finish must not panic.
func TestNilScopeBindAndFinishAreNoOps(t *testing.T) {
	var s *Scope
	clk := simclock.New()
	s.Bind(clk)
	fired := 0
	clk.Sample(100*usec, func(simclock.Time) { fired++ })
	clk.AdvanceTo(simclock.Time(350 * usec)) // a nil scope's hook would panic here
	s.Finish(clk.Now())
	if fired != 3 {
		t.Fatalf("own sampler fired %d times, want 3: the nil Bind disturbed the clock", fired)
	}
}

func TestReportDeterministic(t *testing.T) {
	run := func() []byte {
		rules := DefaultRules(200*usec, 8, 2)
		goods := []int64{10, 10, 0, 0, 0, 10, 10, 10, 10, 10}
		bads := []int64{0, 0, 10, 10, 10, 0, 0, 0, 0, 0}
		s := driveRatio(t, availability(rules), 100*usec, goods, bads)
		r := Report{Experiment: "unit", Seed: 42, Scopes: []ScopeReport{s.Report()}}
		return r.JSON()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same-input reports differ:\n%s\n---\n%s", a, b)
	}
}
