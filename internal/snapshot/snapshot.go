// Package snapshot is the snapshot/restore plane over booted guests: the
// production microVM trick (Firecracker's snapshot API) that turns the
// paper's per-boot costs — §4.3 boot time, §4.4 memory footprint — into
// one-time costs paid at capture. A Snapshot is a deterministic,
// content-addressed capture of a booted guest's state: the kernel's
// configuration identity, the boot timeline it short-circuits, and the
// post-init subsystem tables and resident memory from internal/guest.
// Restore() produces a running clone in virtual-time microseconds by
// skipping every boot.Phase except the monitor handoff and lazily mapping
// the memory file back in; copy-on-write accounting (CloneSet) lets N
// restored clones share the base image's RSS and pay only for the pages
// they dirty.
package snapshot

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"lupine/internal/boot"
	"lupine/internal/faults"
	"lupine/internal/guest"
	"lupine/internal/kbuild"
	"lupine/internal/simclock"
	"lupine/internal/telemetry"
	"lupine/internal/vmm"
)

// Snapshot-owned fault-injection sites.
const (
	// SiteCorrupt fails the artifact checksum when a restore loads the
	// snapshot; the restore falls back to a cold boot.
	SiteCorrupt = "snapshot/corrupt"
	// SiteRestoreFail kills the restore mid-flight (the memory mapping or
	// device re-attach fails); the restore falls back to a cold boot
	// after paying for the doomed attempt.
	SiteRestoreFail = "snapshot/restore-fail"
)

func init() {
	faults.RegisterSite(SiteCorrupt, "snapshot",
		"a snapshot artifact fails its checksum at restore; the launch falls back to a cold boot")
	faults.RegisterSite(SiteRestoreFail, "snapshot",
		"a restore dies mid-flight after the artifact loaded; the launch falls back to a cold boot")
}

// Restore cost model: the restoring monitor is pre-warmed (the jailer
// process already exists), the guest memory file is mmap'd lazily, and no
// kernel init runs — which is why restore lands in microseconds where
// cold boots land in milliseconds.
const (
	restoreHandoffCost = 150 * simclock.Microsecond // monitor re-attach + vCPU state load
	restoreMapPerMB    = 2 * simclock.Microsecond   // lazy mmap of the memory file, per MB of base RSS
)

// ErrUnsupported marks monitors without a snapshot/restore story
// (solo5-hvt, uhyve: the comparators must always cold boot, §6.2).
var ErrUnsupported = errors.New("snapshot: monitor does not support snapshot/restore")

// Snapshot is one captured guest, content-addressed by everything that
// determines the restored machine.
type Snapshot struct {
	ID        string            // content address over kernel, monitor and state
	Kernel    string            // kernel configuration identity (KernelKey)
	Monitor   string            // monitor the guest ran under
	BootTotal simclock.Duration // the cold-boot timeline this snapshot short-circuits
	BaseRSS   int64             // resident bytes the restore maps back in (shared across clones)
}

// KernelKey identifies a kernel build by the things that determine the
// binary: name, optimization level, and the full resolved configuration.
func KernelKey(img *kbuild.Image) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|", img.Name, img.Opt)
	for _, n := range img.Config.Names() {
		fmt.Fprintf(h, "%s=%s;", n, img.Config.Get(n))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Capture snapshots a booted guest: the kernel identity, the boot report
// that produced it, and the guest's post-init state. It fails for
// monitors without snapshot support. Deterministic: the same booted state
// always yields the same ID.
func Capture(img *kbuild.Image, mon *vmm.Monitor, rep boot.Report, g *guest.Kernel) (*Snapshot, error) {
	if img == nil || mon == nil || g == nil {
		return nil, fmt.Errorf("snapshot: nil image, monitor or guest")
	}
	if !mon.Snapshots {
		return nil, fmt.Errorf("%w: %s", ErrUnsupported, mon.Name)
	}
	st := g.State()
	s := &Snapshot{
		Kernel:    KernelKey(img),
		Monitor:   mon.Name,
		BootTotal: rep.Total,
		BaseRSS:   st.MemUsed,
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|%d|%s", s.Kernel, s.Monitor, int64(s.BootTotal), st.Digest())
	s.ID = hex.EncodeToString(h.Sum(nil))[:16]
	return s, nil
}

// RestoreCost is the virtual time a clean restore takes: monitor handoff
// plus the lazy mapping of the base RSS. Every other boot phase — kernel
// load, early init, timer calibration, subsystem init, rootfs mount, the
// init script — is skipped: the snapshot already contains their results.
func (s *Snapshot) RestoreCost() simclock.Duration {
	mapCost := simclock.Duration(float64(restoreMapPerMB) * float64(s.BaseRSS) / 1e6)
	return restoreHandoffCost + mapCost
}

// RestoreResult reports how one launch-from-snapshot went.
type RestoreResult struct {
	Ready    simclock.Duration // latency to a serving VM (fallback cost included)
	Restored bool              // true: served from the snapshot; false: cold-boot fallback
	Detail   string            // why a fallback happened ("" on a clean restore)
}

// Restore produces a running clone at virtual time now. Fault sites can
// corrupt the artifact or kill the restore mid-flight; either way the
// launch falls back to a cold boot of coldBoot duration, with the wasted
// restore work accounted explicitly in Ready. A monitor without snapshot
// support always cold boots.
func (s *Snapshot) Restore(mon *vmm.Monitor, inj *faults.Injector, now simclock.Time, coldBoot simclock.Duration) RestoreResult {
	if mon != nil && !mon.Snapshots {
		return RestoreResult{Ready: coldBoot, Detail: fmt.Sprintf("monitor %s cannot restore", mon.Name)}
	}
	// Checksum check happens before any guest state is touched.
	if d := inj.Hit(SiteCorrupt, now); d.Fire {
		return RestoreResult{
			Ready:  restoreHandoffCost + coldBoot, // the doomed load, then the cold path
			Detail: fmt.Sprintf("snapshot %s failed checksum (offset %d)", s.ID, d.Param),
		}
	}
	cost := s.RestoreCost()
	if d := inj.Hit(SiteRestoreFail, now.Add(cost)); d.Fire {
		return RestoreResult{
			Ready:  cost + coldBoot, // full restore attempt wasted, then the cold path
			Detail: fmt.Sprintf("restore of %s died mid-flight", s.ID),
		}
	}
	return RestoreResult{Ready: cost, Restored: true}
}

// RestoreObserved is Restore plus a trace span on track: "restore" for a
// clean restore, "restore-fallback" when the launch degraded to a cold
// boot, covering [now, now+Ready). Nil-tracer safe.
func (s *Snapshot) RestoreObserved(mon *vmm.Monitor, inj *faults.Injector, now simclock.Time, coldBoot simclock.Duration, tr *telemetry.Tracer, track string) RestoreResult {
	rr := s.Restore(mon, inj, now, coldBoot)
	if tr != nil {
		name := "restore"
		if !rr.Restored {
			name = "restore-fallback"
		}
		tr.Span("snapshot", track, name, now, now.Add(rr.Ready),
			telemetry.A("snapshot", s.ID),
			telemetry.A("detail", rr.Detail))
	}
	return rr
}
