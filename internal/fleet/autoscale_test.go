package fleet

import (
	"fmt"
	"testing"

	"lupine/internal/simclock"
)

const us = simclock.Microsecond

// surgeTestConfig shapes a spike a 2-backend pool cannot absorb, so the
// autoscaler must act.
func surgeTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Requests = 2000
	cfg.Interarrival = 10 * us
	cfg.ArrivalJitter = 5 * us
	return cfg
}

func surgeTestPolicy() *AutoscalePolicy {
	return &AutoscalePolicy{
		Min:          2,
		Max:          6,
		TargetUtil:   0.7,
		LowUtil:      0.2,
		Evaluate:     250 * us,
		UpCooldown:   500 * us,
		DownCooldown: 5 * ms,
		MaxStep:      2,
		DrainTimeout: 2 * ms,
	}
}

func minPool(n int) []*Backend {
	var out []*Backend
	for i := 0; i < n; i++ {
		out = append(out, NewBackend(fmt.Sprintf("vm%d", i), AlwaysUp()))
	}
	return out
}

// TestAutoscalerGrowsUnderSpike: demand above target utilization grows
// the pool toward Max and availability beats the fixed Min pool's.
func TestAutoscalerGrowsUnderSpike(t *testing.T) {
	cfg := surgeTestConfig()
	ff := New(cfg, minPool(2), nil, nil)
	fixed := ff.Run()
	fs := NewAutoscaled(cfg, minPool(2), surgeTestPolicy(), nil, nil)
	scaled := fs.Run()
	checkConservation(t, ff, fixed)
	checkConservation(t, fs, scaled)
	if scaled.ScaleUps == 0 {
		t.Fatal("spike never triggered a scale-up")
	}
	if scaled.PeakActive <= 2 {
		t.Errorf("PeakActive = %d, pool never grew", scaled.PeakActive)
	}
	if scaled.PeakActive > 6 {
		t.Errorf("PeakActive = %d exceeds Max 6", scaled.PeakActive)
	}
	if scaled.Availability() <= fixed.Availability() {
		t.Errorf("autoscaled availability %.3f not above fixed pool's %.3f",
			scaled.Availability(), fixed.Availability())
	}
	// Instant provisioning (nil Provision) counts as cold boots.
	if scaled.Restores != 0 || scaled.ColdBoots == 0 {
		t.Errorf("launch accounting: restores=%d coldboots=%d, want 0 and >0",
			scaled.Restores, scaled.ColdBoots)
	}
}

// TestAutoscalerFullAt: a spike heavy enough to saturate the pool
// records the first instant it reached Max; a quiet pool records never.
func TestAutoscalerFullAt(t *testing.T) {
	cfg := surgeTestConfig()
	f := NewAutoscaled(cfg, minPool(2), surgeTestPolicy(), nil, nil)
	res := f.Run()
	checkConservation(t, f, res)
	if res.FullAt < 0 {
		t.Fatalf("FullAt = %v under a saturating spike, want reached", res.FullAt)
	}
	if res.FullAt > res.End {
		t.Errorf("FullAt %v past End %v", res.FullAt, res.End)
	}

	quiet := DefaultConfig()
	quiet.Interarrival = 200 * us // comfortably served by the Min pool
	qf := NewAutoscaled(quiet, minPool(2), surgeTestPolicy(), nil, nil)
	qres := qf.Run()
	checkConservation(t, qf, qres)
	if qres.FullAt != -1 {
		t.Errorf("quiet pool FullAt = %v, want -1 (never)", qres.FullAt)
	}
	if qres.ScaleUps != 0 {
		t.Errorf("quiet pool scaled up %d times", qres.ScaleUps)
	}
}

// TestAutoscalerScaleDown: a pool started above Min with demand far
// below LowUtil drains back toward Min, newest members first, and never
// below it.
func TestAutoscalerScaleDown(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Requests = 200
	cfg.Interarrival = 1 * ms // sparse: demand ~0 at most evaluate ticks
	p := surgeTestPolicy()
	p.DownCooldown = 1 * ms
	f := NewAutoscaled(cfg, minPool(5), p, nil, nil)
	res := f.Run()
	checkConservation(t, f, res)
	if res.ScaleDowns == 0 {
		t.Fatal("idle pool never scaled down")
	}
	active := 0
	for _, b := range f.Backends() {
		if b.active() {
			active++
		}
	}
	if active < p.Min {
		t.Errorf("active pool %d drained below Min %d", active, p.Min)
	}
	// LIFO victims: the newest members retire, vm0 and vm1 survive.
	for _, b := range f.Backends()[:p.Min] {
		if b.retired || b.draining {
			t.Errorf("oldest backend %s was drained before newer ones", b.Name)
		}
	}
}

// TestAutoscalerProvisionLatencyAndAccounting: launches pay the
// policy's provisioning latency before joining, and Restored launches
// are counted apart from cold boots.
func TestAutoscalerProvisionLatencyAndAccounting(t *testing.T) {
	cfg := surgeTestConfig()
	p := surgeTestPolicy()
	var launches []simclock.Time
	p.Provision = func(seq int, now simclock.Time) Launch {
		launches = append(launches, now)
		return Launch{Ready: 300 * us, Restored: seq%2 == 1}
	}
	f := NewAutoscaled(cfg, minPool(2), p, nil, nil)
	res := f.Run()
	checkConservation(t, f, res)
	if len(launches) == 0 {
		t.Fatal("provision never called")
	}
	if got := res.Restores + res.ColdBoots; got != len(launches) {
		t.Errorf("restores %d + coldboots %d != %d launches", res.Restores, res.ColdBoots, len(launches))
	}
	if res.Restores == 0 || res.ColdBoots == 0 {
		t.Errorf("alternating provision gave restores=%d coldboots=%d, want both nonzero",
			res.Restores, res.ColdBoots)
	}
	// Provisioned backends exist and join after their latency; the first
	// decision cannot predate the first evaluate tick.
	if launches[0] < simclock.Time(p.Evaluate) {
		t.Errorf("first launch at %v, before the first evaluate tick %v", launches[0], p.Evaluate)
	}
	auto := 0
	for _, b := range f.Backends() {
		if b.admitted && len(b.Name) > 4 && b.Name[:4] == "auto" {
			auto++
			if b.start < launches[0].Add(300*us) {
				t.Errorf("backend %s admitted at %v, before any launch could finish", b.Name, b.start)
			}
		}
	}
	if auto != len(launches) {
		t.Errorf("%d auto backends in pool, want %d", auto, len(launches))
	}
}

// TestAutoscalerCooldownBoundsLaunches: each scale-up decision adds at
// most MaxStep backends and decisions are at least UpCooldown apart, so
// total launches are bounded by the spike duration.
func TestAutoscalerCooldownBoundsLaunches(t *testing.T) {
	cfg := surgeTestConfig()
	p := surgeTestPolicy()
	p.UpCooldown = 2 * ms
	f := NewAutoscaled(cfg, minPool(2), p, nil, nil)
	res := f.Run()
	checkConservation(t, f, res)
	if res.ScaleUps == 0 {
		t.Fatal("no scale-ups under the spike")
	}
	maxDecisions := int(res.End/simclock.Time(p.UpCooldown)) + 1
	if res.ScaleUps > maxDecisions {
		t.Errorf("%d scale-ups in %v violates the %v up-cooldown", res.ScaleUps, res.End, p.UpCooldown)
	}
	if got := res.Restores + res.ColdBoots; got > res.ScaleUps*p.MaxStep {
		t.Errorf("%d launches from %d decisions exceeds MaxStep %d", got, res.ScaleUps, p.MaxStep)
	}
	if res.PeakActive > p.Max {
		t.Errorf("PeakActive %d exceeds Max %d", res.PeakActive, p.Max)
	}
}

// TestLaunchTimelineDefaults: a zero-value Launch timeline means
// AlwaysUp (the autoscaler never provisions a dead backend on purpose);
// an explicit timeline is preserved.
func TestLaunchTimelineDefaults(t *testing.T) {
	if tl := launchTimeline(Launch{}); !tl.UpAt(0) || !tl.UpAt(simclock.Time(simclock.Second)) {
		t.Error("zero Launch timeline did not default to AlwaysUp")
	}
	custom := Timeline{Up: []Interval{{From: 0, To: simclock.Time(ms)}}, End: simclock.Time(ms)}
	got := launchTimeline(Launch{Timeline: custom})
	if !got.UpAt(0) || got.UpAt(simclock.Time(2*ms)) {
		t.Error("explicit Launch timeline was not preserved")
	}
}

// TestAutoscalerDeterministic: the autoscaled run — seeded arrivals,
// provisioning latencies, drains — replays bit-for-bit.
func TestAutoscalerDeterministic(t *testing.T) {
	run := func() string {
		cfg := surgeTestConfig()
		p := surgeTestPolicy()
		p.Provision = func(seq int, now simclock.Time) Launch {
			return Launch{Ready: 200 * us, Restored: true}
		}
		f := NewAutoscaled(cfg, minPool(2), p, nil, nil)
		res := f.Run()
		checkConservation(t, f, res)
		return fmt.Sprintf("%+v", res)
	}
	if first, second := run(), run(); first != second {
		t.Errorf("autoscaled run not deterministic:\n--- first\n%s\n--- second\n%s", first, second)
	}
}
