// Package hostmem is the deterministic host memory-pressure plane. An
// Accountant tracks every pool component's resident bytes (cold-boot RSS,
// snapshot artifacts, CoW clone private pages) against a fixed host
// capacity, admits launch commitments under a configurable overcommit
// ratio, and derives PSI-style pressure levels (none/some/full) on the
// virtual clock. The Ladder in ladder.go turns those levels into a graded
// response — balloon reclaim, artifact eviction, admission shed and, as
// the last rung, a deterministic OOM kill — so running out of memory is
// an observable, recoverable scenario instead of an unmodeled crash.
package hostmem

import (
	"fmt"

	"lupine/internal/faults"
	"lupine/internal/simclock"
	"lupine/internal/telemetry"
)

// SiteReclaimStall models the host reclaim path wedging for one control
// tick: neither the balloon nor the artifact store makes progress, so
// pressure persists into the next tick and the ladder escalates sooner.
var SiteReclaimStall = faults.RegisterSite("hostmem/reclaim-stall",
	"hostmem", "host reclaim makes no progress for one pressure tick")

// Level is a PSI-style pressure level derived from resident bytes
// relative to physical capacity.
type Level int

const (
	// LevelNone: residency below the some-threshold; no action needed.
	LevelNone Level = iota
	// LevelSome: reclaim should run, admission still open.
	LevelSome
	// LevelFull: reclaim plus admission shed; overage beyond capacity
	// escalates to an OOM kill.
	LevelFull

	numLevels
)

// String names the level the way PSI does in /proc/pressure/memory.
func (l Level) String() string {
	switch l {
	case LevelNone:
		return "none"
	case LevelSome:
		return "some"
	case LevelFull:
		return "full"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// Config sizes an Accountant.
type Config struct {
	// Capacity is the physical host bytes available to guest memory.
	Capacity int64

	// Overcommit bounds admission: total committed (promised) bytes may
	// reach Overcommit x Capacity before CanAdmit refuses. 0 means 1.0
	// (no overcommit).
	Overcommit float64

	// FullFrac is the full-pressure threshold as a fraction of
	// Capacity. Zero defaults to 0.90.
	FullFrac float64
}

// someFrac is the some-pressure threshold as a fraction of Capacity;
// targetFrac is where reclaim tries to bring residency back to, just
// under someFrac so a successful reclaim round actually clears the
// pressure level.
const (
	someFrac   = 0.70
	targetFrac = 0.65
)

func (c Config) withDefaults() Config {
	if c.Overcommit == 0 {
		c.Overcommit = 1.0
	}
	if c.FullFrac == 0 {
		c.FullFrac = 0.90
	}
	return c
}

// Accountant is the host-side memory ledger. Charges are resident bytes
// by named component; commitments are admission-time promises checked
// against the overcommit bound. It is not safe for concurrent use; the
// simulation substrate is single-threaded by construction.
type Accountant struct {
	cfg Config

	charges   map[string]int64
	used      int64
	peak      int64
	committed int64

	level       Level
	since       simclock.Time
	atLevel     [numLevels]simclock.Duration
	transitions int

	tr         *telemetry.Tracer
	trTrack    string
	levelStart simclock.Time
}

// Observe emits a "pressure:<level>" span (cat "hostmem") for every
// completed period spent at an elevated pressure level, plus an instant
// event at each level transition. Nil-tracer safe.
func (a *Accountant) Observe(tr *telemetry.Tracer, track string) {
	if a == nil || tr == nil {
		return
	}
	a.tr = tr
	a.trTrack = track
	a.levelStart = a.since
}

// New builds an accountant; Capacity must be positive.
func New(cfg Config) *Accountant {
	cfg = cfg.withDefaults()
	if cfg.Capacity <= 0 {
		panic(fmt.Sprintf("hostmem: non-positive capacity %d", cfg.Capacity))
	}
	return &Accountant{cfg: cfg, charges: make(map[string]int64)}
}

// Capacity reports the physical byte capacity.
func (a *Accountant) Capacity() int64 { return a.cfg.Capacity }

// CommitLimit reports the admission bound: Overcommit x Capacity.
func (a *Accountant) CommitLimit() int64 {
	return int64(a.cfg.Overcommit * float64(a.cfg.Capacity))
}

// CanAdmit reports whether a further promise of n bytes fits under the
// overcommit bound.
func (a *Accountant) CanAdmit(n int64) bool {
	return a.committed+n <= a.CommitLimit()
}

// Commit records a promise of n bytes (a launched guest's worst-case
// demand) and reports whether it fit under the overcommit bound. The
// promise is recorded either way: the caller that chooses to overshoot
// still shows up in Committed.
func (a *Accountant) Commit(n int64) bool {
	ok := a.CanAdmit(n)
	a.committed += n
	return ok
}

// Uncommit returns a promise, e.g. when the guest that held it is gone.
// Returning more than is outstanding is a double release and panics.
func (a *Accountant) Uncommit(n int64) {
	if n > a.committed {
		panic(fmt.Sprintf("hostmem: uncommit of %d bytes with only %d committed", n, a.committed))
	}
	a.committed -= n
}

// Committed reports the promised bytes currently outstanding.
func (a *Accountant) Committed() int64 { return a.committed }

// CommitHeadroom reports the promise bytes still admittable under the
// overcommit bound — the bin-packing signal placement ranks hosts by.
func (a *Accountant) CommitHeadroom() int64 {
	if room := a.CommitLimit() - a.committed; room > 0 {
		return room
	}
	return 0
}

// Set records component name's current resident bytes, replacing its
// previous charge, and folds elapsed time at the old pressure level.
func (a *Accountant) Set(name string, resident int64, now simclock.Time) {
	if resident < 0 {
		panic(fmt.Sprintf("hostmem: negative charge %d for %q", resident, name))
	}
	a.Sync(now)
	a.used += resident - a.charges[name]
	if resident == 0 {
		delete(a.charges, name)
	} else {
		a.charges[name] = resident
	}
	if a.used > a.peak {
		a.peak = a.used
	}
	a.relevel()
}

// Release drops component name's charge entirely and reports how many
// resident bytes that freed.
func (a *Accountant) Release(name string, now simclock.Time) int64 {
	freed := a.charges[name]
	a.Set(name, 0, now)
	return freed
}

// Used reports current resident bytes across all components.
func (a *Accountant) Used() int64 { return a.used }

// Peak reports the high-water mark of Used.
func (a *Accountant) Peak() int64 { return a.peak }

// Overage reports resident bytes beyond physical capacity — the amount
// an OOM kill must claw back.
func (a *Accountant) Overage() int64 {
	if over := a.used - a.cfg.Capacity; over > 0 {
		return over
	}
	return 0
}

// ReclaimTarget reports how many bytes reclaim should free to bring
// residency back to targetFrac x Capacity (0 when already below).
func (a *Accountant) ReclaimTarget() int64 {
	target := int64(targetFrac * float64(a.cfg.Capacity))
	if need := a.used - target; need > 0 {
		return need
	}
	return 0
}

// Level reports the current pressure level.
func (a *Accountant) Level() Level { return a.level }

func (a *Accountant) levelFor(used int64) Level {
	switch frac := float64(used) / float64(a.cfg.Capacity); {
	case frac >= a.cfg.FullFrac:
		return LevelFull
	case frac >= someFrac:
		return LevelSome
	}
	return LevelNone
}

func (a *Accountant) relevel() {
	if next := a.levelFor(a.used); next != a.level {
		// Sync ran just before any charge change, so a.since is "now".
		if a.tr != nil {
			if a.level != LevelNone {
				a.tr.Span("hostmem", a.trTrack, "pressure:"+a.level.String(), a.levelStart, a.since)
			}
			a.tr.Instant("hostmem", a.trTrack, "pressure->"+next.String(), a.since)
			a.levelStart = a.since
		}
		a.level = next
		a.transitions++
	}
}

// Sync folds elapsed virtual time into the current level's pressure-time
// counter. Set and Release call it implicitly; callers only need it when
// reading PressureTime at an instant with no charge update.
func (a *Accountant) Sync(now simclock.Time) {
	if now.Before(a.since) {
		return // a stale caller; time at levels never flows backwards
	}
	a.atLevel[a.level] += now.Sub(a.since)
	a.since = now
}

// PressureTime reports total virtual time spent at level l.
func (a *Accountant) PressureTime(l Level) simclock.Duration { return a.atLevel[l] }

// Transitions reports how many times the pressure level changed.
func (a *Accountant) Transitions() int { return a.transitions }
