package fleet

import (
	"testing"

	"lupine/internal/simclock"
)

// fakePlane is a scriptable MemoryPlane: shed inside a window, kill once
// at a given tick count.
type fakePlane struct {
	shedFrom, shedTo simclock.Time
	killAt           int
	killLaunch       *Launch

	ticks    int
	killed   *Backend
	finished bool
	end      simclock.Time
}

func (p *fakePlane) Tick(f *Fleet, now simclock.Time) {
	p.ticks++
	if p.killAt > 0 && p.ticks == p.killAt {
		p.killed = f.OOMKill(p.killLaunch, now)
	}
}

func (p *fakePlane) ShedAdmission(now simclock.Time) bool {
	return now >= p.shedFrom && now < p.shedTo
}

func (p *fakePlane) Finish(end simclock.Time) MemStats {
	p.finished = true
	p.end = end
	return MemStats{Kills: 1}
}

func memTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Requests = 200
	return cfg
}

// TestMemoryShedWindow: arrivals inside the plane's shed window are
// refused and double-counted as Shed and MemSheds; outside it traffic
// flows normally, and Finish lands in Result.Mem.
func TestMemoryShedWindow(t *testing.T) {
	const ms = simclock.Millisecond
	cfg := memTestConfig()
	backends := []*Backend{NewBackend("a", AlwaysUp()), NewBackend("b", AlwaysUp())}
	p := &fakePlane{shedFrom: simclock.Time(2 * ms), shedTo: simclock.Time(4 * ms)}
	f := New(cfg, backends, nil, nil)
	f.AttachMemory(p, 500*simclock.Microsecond)

	res := f.Run()
	checkConservation(t, f, res)
	if res.MemSheds == 0 {
		t.Error("no arrivals shed inside the pressure window")
	}
	if res.Shed < res.MemSheds {
		t.Errorf("Shed %d < MemSheds %d: memory sheds must be a subset", res.Shed, res.MemSheds)
	}
	if res.OK+res.Shed+res.Failed != res.Total {
		t.Errorf("conservation broken: %d+%d+%d != %d", res.OK, res.Shed, res.Failed, res.Total)
	}
	if res.OK == 0 {
		t.Error("everything shed: window should only cover part of the run")
	}
	if !p.finished || res.Mem.Kills != 1 {
		t.Errorf("Finish not folded into Result.Mem: finished=%v mem=%+v", p.finished, res.Mem)
	}
	if p.end != res.End {
		t.Errorf("Finish saw end %v, run ended %v", p.end, res.End)
	}
	if p.ticks == 0 {
		t.Error("plane never ticked")
	}
}

// TestOOMKillVictimAndReplacement: the kill takes the newest active
// backend (LIFO), fires its release hook immediately, and the
// replacement joins after the launch latency with its own release hook
// and restore accounting.
func TestOOMKillVictimAndReplacement(t *testing.T) {
	cfg := memTestConfig()
	var releases []string
	a := NewBackend("a", AlwaysUp())
	b := NewBackend("b", AlwaysUp())
	b.SetOnRelease(func(simclock.Time) { releases = append(releases, "b") })
	p := &fakePlane{
		killAt: 3,
		killLaunch: &Launch{
			Ready:     100 * simclock.Microsecond,
			Restored:  true,
			OnRetired: func(simclock.Time) { releases = append(releases, "oom") },
		},
	}
	f := New(cfg, []*Backend{a, b}, nil, nil)
	f.AttachMemory(p, 500*simclock.Microsecond)

	res := f.Run()
	checkConservation(t, f, res)
	if p.killed != b {
		t.Fatalf("victim %v, want the newest backend b", p.killed)
	}
	if !b.retired {
		t.Error("victim not retired")
	}
	if len(releases) == 0 || releases[0] != "b" {
		t.Errorf("victim release hook order %v, want b first", releases)
	}
	if res.Restores != 1 {
		t.Errorf("Restores %d, want 1 (replacement restored from snapshot)", res.Restores)
	}
	// The replacement backend is in the pool and carried its own hook.
	var oom *Backend
	for _, bk := range f.Backends() {
		if bk.Name == "oom1" {
			oom = bk
		}
	}
	if oom == nil {
		t.Fatal("no oom1 replacement in the pool")
	}
	if oom.onRelease == nil {
		t.Error("replacement lost its release hook")
	}
	// Killing with no launch when only one backend remains: victim is the
	// replacement (newest), then the origin, then nil.
	now := res.End
	if v := f.OOMKill(nil, now); v != oom {
		t.Errorf("second kill victim %v, want oom1", v)
	}
	if v := f.OOMKill(nil, now); v != a {
		t.Errorf("third kill victim %v, want a", v)
	}
	if v := f.OOMKill(nil, now); v != nil {
		t.Errorf("kill with empty pool returned %v", v)
	}
}

// TestScaleDownReleasesClone: the satellite fix — a Launch's OnRetired
// must fire when the autoscaler drains the backend away (LIFO
// scale-down), not leak. Uses a provision hook and low demand so the
// scaler grows then shrinks.
func TestScaleDownReleasesClone(t *testing.T) {
	const us = simclock.Microsecond
	cfg := memTestConfig()
	cfg.Requests = 400
	cfg.Interarrival = 20 * us // burst to force a scale-up
	released := 0
	scaler := &AutoscalePolicy{
		Min: 1, Max: 4,
		TargetUtil: 0.75, LowUtil: 0.25,
		Evaluate:     200 * us,
		DrainTimeout: 1 * simclock.Millisecond,
		Provision: func(seq int, now simclock.Time) Launch {
			return Launch{
				Ready:     50 * us,
				Restored:  true,
				OnRetired: func(simclock.Time) { released++ },
			}
		},
	}
	f := NewAutoscaled(cfg, []*Backend{NewBackend("origin", AlwaysUp())}, scaler, nil, nil)
	res := f.Run()
	checkConservation(t, f, res)
	if res.ScaleUps == 0 {
		t.Fatal("burst did not trigger a scale-up; test tuning broken")
	}
	if res.ScaleDowns == 0 {
		t.Fatal("trailing quiet period did not trigger a scale-down")
	}
	if released == 0 {
		t.Error("scale-down drained a restored backend without firing OnRetired: clone pages leak")
	}
	if released > res.ScaleDowns {
		t.Errorf("released %d > scale-downs %d: release fired more than once per drain", released, res.ScaleDowns)
	}
}

// TestRetireFiresBothHooks: onRelease and onRetired are independent
// slots; drain's continuation must not clobber the release hook.
func TestRetireFiresBothHooks(t *testing.T) {
	cfg := memTestConfig()
	f := New(cfg, []*Backend{NewBackend("a", AlwaysUp()), NewBackend("b", AlwaysUp())}, nil, nil)
	b := f.backends[1]
	var order []string
	b.SetOnRelease(func(simclock.Time) { order = append(order, "release") })
	f.drain(b, simclock.Millisecond, 0, func(simclock.Time) { order = append(order, "done") })
	if len(order) != 2 || order[0] != "release" || order[1] != "done" {
		t.Errorf("hook order %v, want [release done]", order)
	}
	// retire is idempotent: nothing fires twice.
	f.retire(b, 0)
	if len(order) != 2 {
		t.Errorf("re-retire fired hooks again: %v", order)
	}
}
