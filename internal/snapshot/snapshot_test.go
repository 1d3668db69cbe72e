package snapshot

import (
	"errors"
	"strings"
	"testing"

	"lupine/internal/apps"
	"lupine/internal/core"
	"lupine/internal/faults"
	"lupine/internal/guest"
	"lupine/internal/kerneldb"
	"lupine/internal/simclock"
	"lupine/internal/vmm"
)

// bootHello builds and boots one hello-world Lupine unikernel under the
// given monitor and runs it to completion, returning everything Capture
// needs.
func bootHello(t *testing.T, mon *vmm.Monitor) (*core.Unikernel, *core.VM) {
	t.Helper()
	db := kerneldb.MustLoad()
	app, err := apps.Lookup("hello-world")
	if err != nil {
		t.Fatal(err)
	}
	u, err := core.Build(db, core.Spec{
		Manifest: app.Manifest(),
		Image:    app.ContainerImage(),
		Program:  func(p *guest.Proc, probeOnly bool) int { return app.Main(p, probeOnly) },
	}, core.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	vm, err := u.Boot(core.BootOpts{Monitor: mon, ProbeOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	return u, vm
}

func capture(t *testing.T) (*core.VM, *Snapshot) {
	t.Helper()
	u, vm := bootHello(t, vmm.Firecracker())
	snap, err := Capture(u.Kernel, vmm.Firecracker(), vm.Boot, vm.Guest)
	if err != nil {
		t.Fatal(err)
	}
	return vm, snap
}

// TestCaptureContentAddressed boots the same kernel twice: identical
// booted state must yield byte-identical snapshot IDs, and a different
// kernel configuration must yield a different one.
func TestCaptureContentAddressed(t *testing.T) {
	_, first := capture(t)
	_, second := capture(t)
	if first.ID == "" || first.Kernel == "" {
		t.Fatalf("empty identity: %+v", first)
	}
	if first.ID != second.ID {
		t.Errorf("same booted state, different IDs: %s vs %s", first.ID, second.ID)
	}
	if first.Kernel != second.Kernel {
		t.Errorf("same kernel, different keys: %s vs %s", first.Kernel, second.Kernel)
	}

	// A structurally different kernel (microVM baseline) under the same
	// monitor must not collide.
	db := kerneldb.MustLoad()
	app, err := apps.Lookup("hello-world")
	if err != nil {
		t.Fatal(err)
	}
	mu, err := core.BuildMicroVM(db, core.Spec{
		Manifest: app.Manifest(),
		Image:    app.ContainerImage(),
		Program:  func(p *guest.Proc, probeOnly bool) int { return app.Main(p, probeOnly) },
	})
	if err != nil {
		t.Fatal(err)
	}
	mvm, err := mu.Boot(core.BootOpts{Monitor: vmm.Firecracker(), ProbeOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := mvm.Run(); err != nil {
		t.Fatal(err)
	}
	msnap, err := Capture(mu.Kernel, vmm.Firecracker(), mvm.Boot, mvm.Guest)
	if err != nil {
		t.Fatal(err)
	}
	if msnap.Kernel == first.Kernel || msnap.ID == first.ID {
		t.Errorf("microvm snapshot collides with lupine: kernel %s/%s id %s/%s",
			msnap.Kernel, first.Kernel, msnap.ID, first.ID)
	}
}

// TestCaptureUnsupportedMonitor: the libos-style monitors have no
// snapshot API, so capture must refuse (§6.2: the comparators always
// cold boot).
func TestCaptureUnsupportedMonitor(t *testing.T) {
	u, vm := bootHello(t, vmm.Firecracker())
	mon := vmm.Solo5HVT()
	if _, err := Capture(u.Kernel, mon, vm.Boot, vm.Guest); !errors.Is(err, ErrUnsupported) {
		t.Errorf("Capture under %s: err = %v, want ErrUnsupported", mon.Name, err)
	}
	if _, err := Capture(nil, vmm.Firecracker(), vm.Boot, vm.Guest); err == nil {
		t.Error("Capture(nil image) succeeded")
	}
}

// TestRestoreBeatsColdBootTenfold is the subsystem's acceptance bar:
// restoring skips every boot phase except monitor handoff, so a clean
// restore must be at least 10x faster than the cold boot it replaces.
func TestRestoreBeatsColdBootTenfold(t *testing.T) {
	vm, snap := capture(t)
	cold := vm.Boot.Total
	cost := snap.RestoreCost()
	if cost <= 0 {
		t.Fatalf("non-positive restore cost %v", cost)
	}
	if 10*cost > cold {
		t.Errorf("restore %v not 10x faster than cold boot %v", cost, cold)
	}
	rr := snap.Restore(vmm.Firecracker(), nil, 0, cold)
	if !rr.Restored || rr.Ready != cost || rr.Detail != "" {
		t.Errorf("clean restore = %+v, want Restored with Ready %v", rr, cost)
	}
}

// TestRestoreFaultFallbacks arms both snapshot-plane sites: a corrupt
// artifact falls back before mapping (handoff + cold boot), a mid-flight
// death falls back after the full restore attempt (restore + cold boot).
// Either way the launch still comes up, with the waste accounted.
func TestRestoreFaultFallbacks(t *testing.T) {
	vm, snap := capture(t)
	cold := vm.Boot.Total

	inj := faults.MustNew(faults.Plan{Seed: 1, Rules: []faults.Rule{
		{Site: SiteCorrupt, NthHit: 1, Param: 4096},
	}})
	rr := snap.Restore(vmm.Firecracker(), inj, 0, cold)
	if rr.Restored {
		t.Error("corrupt snapshot still restored")
	}
	if want := restoreHandoffCost + cold; rr.Ready != want {
		t.Errorf("corrupt fallback Ready = %v, want handoff+cold = %v", rr.Ready, want)
	}
	if !strings.Contains(rr.Detail, "checksum") {
		t.Errorf("corrupt fallback detail = %q", rr.Detail)
	}

	inj = faults.MustNew(faults.Plan{Seed: 1, Rules: []faults.Rule{
		{Site: SiteRestoreFail, NthHit: 1},
	}})
	rr = snap.Restore(vmm.Firecracker(), inj, 0, cold)
	if rr.Restored {
		t.Error("mid-flight death still restored")
	}
	if want := snap.RestoreCost() + cold; rr.Ready != want {
		t.Errorf("mid-flight fallback Ready = %v, want restore+cold = %v", rr.Ready, want)
	}

	// A monitor without snapshots cold boots with no extra charge.
	rr = snap.Restore(vmm.Solo5HVT(), nil, 0, cold)
	if rr.Restored || rr.Ready != cold {
		t.Errorf("unsupported-monitor restore = %+v, want cold boot %v", rr, cold)
	}
}

// TestRestoreFaultWindow: a rule windowed past the restore instant must
// not fire — Restore checks SiteRestoreFail at now + cost, so a window
// that opens mid-restore catches it.
func TestRestoreFaultWindow(t *testing.T) {
	vm, snap := capture(t)
	cold := vm.Boot.Total
	cost := snap.RestoreCost()
	// Window opens after the handoff but before the restore completes:
	// the corrupt check (at now) misses it, the mid-flight check (at
	// now+cost) lands inside.
	inj := faults.MustNew(faults.Plan{Seed: 1, Rules: []faults.Rule{
		{Site: SiteRestoreFail, From: simclock.Time(cost / 2), To: simclock.Time(2 * cost), NthHit: 1},
	}})
	if rr := snap.Restore(vmm.Firecracker(), inj, 0, cold); rr.Restored {
		t.Errorf("mid-restore window missed: %+v", rr)
	}
	// The same plan evaluated far past the window restores cleanly.
	inj = faults.MustNew(faults.Plan{Seed: 1, Rules: []faults.Rule{
		{Site: SiteRestoreFail, From: simclock.Time(cost / 2), To: simclock.Time(2 * cost), NthHit: 1},
	}})
	if rr := snap.Restore(vmm.Firecracker(), inj, simclock.Time(10*cost), cold); !rr.Restored {
		t.Errorf("restore outside the fault window fell back: %+v", rr)
	}
}

// TestCloneSetSharing is the memory half of the acceptance bar: N clones
// sharing a base image must cost less than N cold instances as long as
// their dirty sets are smaller than the base.
func TestCloneSetSharing(t *testing.T) {
	const base = int64(40 * guest.MiB)
	const dirty = int64(3 * guest.MiB)
	const n = 8
	cs := NewCloneSet(base)
	for i := 0; i < n; i++ {
		cs.Clone().Touch(dirty)
	}
	if cs.Clones() != n {
		t.Fatalf("Clones() = %d, want %d", cs.Clones(), n)
	}
	if cs.SharedBase() != base { // already page-aligned
		t.Errorf("SharedBase = %d, want %d", cs.SharedBase(), base)
	}
	want := base + n*dirty
	if got := cs.AggregateRSS(); got != want {
		t.Errorf("AggregateRSS = %d, want %d", got, want)
	}
	if naive := int64(n) * base; cs.AggregateRSS() >= naive {
		t.Errorf("CoW aggregate %d not below naive %d", cs.AggregateRSS(), naive)
	}
}

// TestClonePageRounding: dirtying is page-granular — one byte costs one
// page, and a clone that never writes costs nothing.
func TestClonePageRounding(t *testing.T) {
	cs := NewCloneSet(1) // rounds up to one page
	if cs.SharedBase() != pageSize {
		t.Errorf("base of 1 byte = %d, want one page %d", cs.SharedBase(), pageSize)
	}
	c := cs.Clone()
	if c.RSS() != 0 {
		t.Errorf("untouched clone RSS = %d", c.RSS())
	}
	c.Touch(1)
	if c.RSS() != pageSize {
		t.Errorf("Touch(1) RSS = %d, want %d", c.RSS(), pageSize)
	}
	c.Touch(pageSize + 1)
	if want := int64(3 * pageSize); c.Dirty() != want {
		t.Errorf("Dirty after Touch(1)+Touch(page+1) = %d, want %d", c.Dirty(), want)
	}
	c.Touch(0)
	c.Touch(-5)
	if want := int64(3 * pageSize); c.Dirty() != want {
		t.Errorf("Touch(0)/Touch(-5) changed dirty to %d", c.Dirty())
	}
}

// TestStoreCaching: one capture serves every later lookup of the same
// kernel+monitor, the KernelCache pattern applied to warm state.
func TestStoreCaching(t *testing.T) {
	_, snap := capture(t)
	st := NewStore()
	if _, ok := st.Get(snap.Kernel, snap.Monitor); ok {
		t.Fatal("empty store returned a snapshot")
	}
	st.Put(snap)
	for i := 0; i < 2; i++ {
		if got, ok := st.Get(snap.Kernel, snap.Monitor); !ok || got != snap {
			t.Fatalf("Get = %v, %v; want the stored snapshot", got, ok)
		}
	}
	captures, hits, misses := st.Stats()
	if captures != 1 || hits != 2 || misses != 1 {
		t.Errorf("Stats = (%d captures, %d hits, %d misses), want (1, 2, 1)", captures, hits, misses)
	}
	// A different monitor is a different cache line.
	if _, ok := st.Get(snap.Kernel, "qemu"); ok {
		t.Error("lookup under a different monitor hit")
	}
}

// TestCloneRelease: the PR-3 accounting leak — drained clones must stop
// counting toward the aggregate, or scale-up/scale-down cycles grow RSS
// monotonically.
func TestCloneRelease(t *testing.T) {
	cs := NewCloneSet(int64(10 * guest.MiB))
	a := cs.Clone()
	b := cs.Clone()
	a.Touch(2 * guest.MiB)
	a.Cache(1 * guest.MiB)
	b.Touch(4 * guest.MiB)

	before := cs.AggregateRSS()
	freed := a.Release()
	if want := int64(3 * guest.MiB); freed != want {
		t.Errorf("Release freed %d, want %d", freed, want)
	}
	if got := cs.AggregateRSS(); got != before-freed {
		t.Errorf("AggregateRSS %d after release, want %d", got, before-freed)
	}
	if !a.Released() || a.RSS() != 0 {
		t.Errorf("released clone still charged: released=%v rss=%d", a.Released(), a.RSS())
	}
	if cs.Active() != 1 || cs.Clones() != 2 {
		t.Errorf("Active=%d Clones=%d, want 1/2", cs.Active(), cs.Clones())
	}
	// Idempotent, and a released clone cannot grow again.
	if freed := a.Release(); freed != 0 {
		t.Errorf("double Release freed %d", freed)
	}
	a.Touch(guest.MiB)
	a.Cache(guest.MiB)
	if a.RSS() != 0 {
		t.Errorf("released clone accepted new pages: %d", a.RSS())
	}
}

// TestCloneReclaim: clean pages drop under balloon pressure, dirty pages
// do not; ReclaimClean drains the largest holders first deterministically.
func TestCloneReclaim(t *testing.T) {
	cs := NewCloneSet(int64(10 * guest.MiB))
	a := cs.Clone()
	a.Touch(2 * guest.MiB)
	a.Cache(3 * guest.MiB)
	b := cs.Clone()
	b.Cache(1 * guest.MiB)

	if got := a.Reclaim(guest.MiB); got != guest.MiB {
		t.Errorf("Reclaim freed %d, want %d", got, guest.MiB)
	}
	if a.Clean() != 2*guest.MiB || a.Dirty() != 2*guest.MiB {
		t.Errorf("after reclaim clean=%d dirty=%d", a.Clean(), a.Dirty())
	}
	// Set-wide: need 4MiB, have 3MiB clean left (2 on a, 1 on b).
	if got := cs.ReclaimClean(4 * guest.MiB); got != 3*guest.MiB {
		t.Errorf("ReclaimClean freed %d, want %d", got, 3*guest.MiB)
	}
	if cs.CleanRSS() != 0 {
		t.Errorf("CleanRSS %d after full reclaim", cs.CleanRSS())
	}
	// Dirty pages survived: they are not reclaimable.
	if cs.PrivateRSS() != 2*guest.MiB {
		t.Errorf("PrivateRSS %d, want the dirty 2MiB", cs.PrivateRSS())
	}
}

// TestStoreEviction: under pressure the store drops LRU artifacts but
// never a pinned (actively mapped) one, with deterministic ordering and
// eviction accounting.
func TestStoreEviction(t *testing.T) {
	st := NewStore()
	mk := func(kernel string, rss int64) *Snapshot {
		return &Snapshot{Kernel: kernel, Monitor: "firecracker", BaseRSS: rss}
	}
	st.Put(mk("a", 10*guest.MiB))
	st.Put(mk("b", 20*guest.MiB))
	st.Put(mk("c", 30*guest.MiB))
	if got := st.Resident(); got != 60*guest.MiB {
		t.Fatalf("Resident %d, want %d", got, 60*guest.MiB)
	}

	// Touch "a" so "b" becomes the coldest.
	st.Get("a", "firecracker")

	// Need 15MiB with "c" pinned: evicts "b" (coldest, 20MiB) and stops.
	freed := st.EvictCold(15*guest.MiB, Key("c", "firecracker"))
	if freed != 20*guest.MiB {
		t.Errorf("EvictCold freed %d, want %d", freed, 20*guest.MiB)
	}
	if _, ok := st.Get("b", "firecracker"); ok {
		t.Error("evicted artifact still cached")
	}
	if _, ok := st.Get("c", "firecracker"); !ok {
		t.Error("pinned artifact was evicted")
	}

	// Demanding more than everything evictable frees all but the pin.
	freed = st.EvictCold(1<<40, Key("c", "firecracker"))
	if freed != 10*guest.MiB {
		t.Errorf("full eviction freed %d, want %d", freed, 10*guest.MiB)
	}
	if got := st.Resident(); got != 30*guest.MiB {
		t.Errorf("Resident %d after eviction, want the pinned 30MiB", got)
	}
	count, bytes := st.Evictions()
	if count != 2 || bytes != 30*guest.MiB {
		t.Errorf("Evictions = (%d, %d), want (2, %d)", count, bytes, 30*guest.MiB)
	}
}
