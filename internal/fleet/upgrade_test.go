package fleet

import (
	"testing"

	"lupine/internal/simclock"
)

// drainFixture builds a quiet fleet (no traffic) whose event loop the
// test drives by hand, so drain semantics are observable step by step.
func drainFixture(names ...string) *Fleet {
	cfg := DefaultConfig()
	cfg.Requests = 0
	var backends []*Backend
	for _, n := range names {
		backends = append(backends, NewBackend(n, AlwaysUp()))
	}
	return New(cfg, backends, nil, nil)
}

// TestDrainIdleRetiresImmediately: a backend with nothing in flight
// leaves the pool at the drain instant and fires its continuation once.
func TestDrainIdleRetiresImmediately(t *testing.T) {
	f := drainFixture("a", "b")
	b := f.backends[0]
	fired := 0
	var firedAt simclock.Time
	f.drain(b, 5*ms, simclock.Time(2*ms), func(now simclock.Time) { fired++; firedAt = now })
	if !b.retired {
		t.Fatal("idle backend not retired at drain time")
	}
	if fired != 1 || firedAt != simclock.Time(2*ms) {
		t.Errorf("continuation fired %d times at %v, want once at 2ms", fired, firedAt)
	}
	f.retire(b, simclock.Time(3*ms))
	if fired != 1 {
		t.Errorf("retire is not idempotent: continuation fired %d times", fired)
	}
}

// TestDrainWaitsForInflight: a draining backend takes no new work but
// stays until its last in-flight request resolves, then retires at that
// instant — not at the timeout.
func TestDrainWaitsForInflight(t *testing.T) {
	f := drainFixture("a", "b")
	b := f.backends[0]
	b.inflight = 2
	retiredAt := simclock.Time(-1)
	f.drain(b, 50*ms, 0, func(now simclock.Time) { retiredAt = now })
	if b.retired {
		t.Fatal("retired with requests in flight")
	}
	if !b.draining || b.dispatchable(0) {
		t.Error("draining backend still dispatchable")
	}
	b.inflight = 1
	f.maybeDrained(b, simclock.Time(1*ms))
	if b.retired {
		t.Fatal("retired before the last in-flight request resolved")
	}
	b.inflight = 0
	f.maybeDrained(b, simclock.Time(3*ms))
	if !b.retired || retiredAt != simclock.Time(3*ms) {
		t.Errorf("retired=%v at %v, want retirement at 3ms", b.retired, retiredAt)
	}
	// The pending timeout event must now be a no-op.
	f.eng.Run()
	if retiredAt != simclock.Time(3*ms) {
		t.Errorf("timeout re-fired the continuation at %v", retiredAt)
	}
}

// TestDrainTimeoutAbandonsStragglers: in-flight work that never resolves
// is abandoned when the drain timeout elapses.
func TestDrainTimeoutAbandonsStragglers(t *testing.T) {
	f := drainFixture("a", "b")
	b := f.backends[0]
	b.inflight = 1 // never resolves
	retiredAt := simclock.Time(-1)
	f.drain(b, 5*ms, simclock.Time(10*ms), func(now simclock.Time) { retiredAt = now })
	f.eng.Run()
	if !b.retired || retiredAt != simclock.Time(15*ms) {
		t.Errorf("retired=%v at %v, want forced retirement at drain start + timeout = 15ms",
			b.retired, retiredAt)
	}
}

// TestNewestActiveOrdering: scale-down victims are chosen LIFO — the
// most recently admitted active backend goes first, and draining or
// retired members are skipped.
func TestNewestActiveOrdering(t *testing.T) {
	f := drainFixture("a", "b", "c")
	if got := f.newestActive(); got == nil || got.Name != "c" {
		t.Fatalf("newestActive = %v, want c", got)
	}
	f.backends[2].draining = true
	if got := f.newestActive(); got == nil || got.Name != "b" {
		t.Errorf("newestActive with c draining = %v, want b", got)
	}
	f.backends[1].retired = true
	if got := f.newestActive(); got == nil || got.Name != "a" {
		t.Errorf("newestActive with b retired = %v, want a", got)
	}
	f.backends[0].draining = true
	if got := f.newestActive(); got != nil {
		t.Errorf("newestActive on a fully draining pool = %v, want nil", got)
	}
}

// TestUpgradeSurgeHoldsMinActive is the satellite's invariant under
// load: with requests in flight through every drain, the structurally
// active count never dips below the original pool size, because the
// surge instance joins before the first drain begins.
func TestUpgradeSurgeHoldsMinActive(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Requests = 4000 // traffic spans the whole rollout
	plan := &UpgradePlan{
		Start:        simclock.Time(5 * ms),
		BootTime:     3 * ms,
		DrainTimeout: 2 * ms,
		RebuildTime:  func(i int) simclock.Duration { return simclock.Duration(i) * ms },
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
		t.Errorf("MinActive = %d during the rollout, want >= 3 (surge pays for every drain)", res.MinActive)
	}
	if !f.upgraded {
		t.Error("rollout never completed")
	}
	// Drain ordering: originals retire in admission order, then the surge.
	var order []string
	for _, b := range f.backends {
		if b.retired {
			order = append(order, b.Name)
		}
	}
	want := []string{"a", "b", "c", "surge"}
	if len(order) != len(want) {
		t.Fatalf("retired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("retired in order %v, want %v", order, want)
		}
	}
}

// TestUpgradeSlowSurgeDelaysRollout: the rollout must not begin until
// the surge instance is in rotation — a slow surge boot shifts the whole
// schedule rather than letting capacity dip.
func TestUpgradeSlowSurgeDelaysRollout(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Requests = 4000
	plan := &UpgradePlan{
		Start:        simclock.Time(5 * ms),
		BootTime:     40 * ms, // surge takes most of the run to boot
		DrainTimeout: 2 * ms,
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
		t.Errorf("MinActive = %d with a slow surge, want >= 3 (no drain before the surge joins)", res.MinActive)
	}
	var surge *Backend
	for _, b := range f.backends {
		if b.Name == "surge" {
			surge = b
		}
	}
	if surge == nil {
		t.Fatal("no surge backend in pool")
	}
	if want := plan.Start.Add(plan.BootTime); surge.start != want {
		t.Errorf("surge joined at %v, want start+boot = %v", surge.start, want)
	}
}
