package hostmem

import (
	"testing"

	"lupine/internal/faults"
	"lupine/internal/simclock"
)

const (
	kib = int64(1024)
	mib = 1024 * kib
	ms  = simclock.Millisecond
)

func TestAccountantLevelsAndPressureTime(t *testing.T) {
	a := New(Config{Capacity: 100 * mib})

	if a.Level() != LevelNone {
		t.Fatalf("empty accountant at level %v, want none", a.Level())
	}

	// 0..10ms at none, then 10..20ms at some, then 20..30ms at full.
	a.Set("pool", 50*mib, 0)
	a.Set("pool", 75*mib, simclock.Time(10*ms)) // 0.75 >= 0.70 -> some
	if a.Level() != LevelSome {
		t.Fatalf("at 75%%: level %v, want some", a.Level())
	}
	a.Set("pool", 95*mib, simclock.Time(20*ms)) // 0.95 >= 0.90 -> full
	if a.Level() != LevelFull {
		t.Fatalf("at 95%%: level %v, want full", a.Level())
	}
	a.Sync(simclock.Time(30 * ms))

	if got := a.PressureTime(LevelNone); got != 10*ms {
		t.Errorf("none time %v, want 10ms", got)
	}
	if got := a.PressureTime(LevelSome); got != 10*ms {
		t.Errorf("some time %v, want 10ms", got)
	}
	if got := a.PressureTime(LevelFull); got != 10*ms {
		t.Errorf("full time %v, want 10ms", got)
	}
	if a.Transitions() != 2 {
		t.Errorf("transitions %d, want 2", a.Transitions())
	}
	if a.Peak() != 95*mib {
		t.Errorf("peak %d, want %d", a.Peak(), 95*mib)
	}
}

func TestAccountantOverageAndReclaimTarget(t *testing.T) {
	a := New(Config{Capacity: 100 * mib})
	a.Set("pool", 110*mib, 0)
	if got := a.Overage(); got != 10*mib {
		t.Errorf("overage %d, want %d", got, 10*mib)
	}
	// Default target is 0.65 x capacity.
	if got := a.ReclaimTarget(); got != 45*mib {
		t.Errorf("reclaim target %d, want %d", got, 45*mib)
	}
	a.Set("pool", 40*mib, 0)
	if got := a.Overage(); got != 0 {
		t.Errorf("overage below capacity %d, want 0", got)
	}
	if got := a.ReclaimTarget(); got != 0 {
		t.Errorf("reclaim target below target frac %d, want 0", got)
	}
}

func TestAccountantOvercommitAdmission(t *testing.T) {
	a := New(Config{Capacity: 100 * mib, Overcommit: 2.0})
	if a.CommitLimit() != 200*mib {
		t.Fatalf("commit limit %d, want %d", a.CommitLimit(), 200*mib)
	}
	if !a.Commit(150 * mib) {
		t.Error("first 150MiB commit refused under 2x overcommit")
	}
	if a.CanAdmit(100 * mib) {
		t.Error("100MiB admitted beyond the 2x bound")
	}
	if !a.Commit(50 * mib) {
		t.Error("topping up to exactly the bound refused")
	}
	a.Uncommit(200 * mib)
	if a.Committed() != 0 {
		t.Errorf("committed after full uncommit: %d", a.Committed())
	}
}

// TestUncommitTwicePanics: returning a promise that is no longer
// outstanding is a double release, and a ledger that clamped it to zero
// would hide the bug, so the second Uncommit of the same bytes panics.
func TestUncommitTwicePanics(t *testing.T) {
	a := New(Config{Capacity: 100 * mib})
	a.Commit(60 * mib)
	a.Uncommit(60 * mib)
	defer func() {
		if recover() == nil {
			t.Fatalf("second Uncommit of 60 MiB left the ledger at %d, want a panic", a.Committed())
		}
	}()
	a.Uncommit(60 * mib)
}

func TestAccountantReleaseDropsCharge(t *testing.T) {
	a := New(Config{Capacity: 100 * mib})
	a.Set("origin", 30*mib, 0)
	a.Set("clone1", 20*mib, 0)
	if freed := a.Release("clone1", 0); freed != 20*mib {
		t.Errorf("release freed %d, want %d", freed, 20*mib)
	}
	if a.Used() != 30*mib {
		t.Errorf("used after release %d, want %d", a.Used(), 30*mib)
	}
	if freed := a.Release("clone1", 0); freed != 0 {
		t.Errorf("double release freed %d, want 0", freed)
	}
}

// ladderPool is a toy pool the ladder reclaims from: clean pages first
// (balloon), then cold artifacts (evict), then a whole victim (kill).
type ladderPool struct {
	resident  int64
	clean     int64
	artifacts int64
	victim    int64
	kills     int
}

func (p *ladderPool) hooks() Hooks {
	return Hooks{
		Balloon: func(need int64, _ simclock.Time) int64 {
			got := min64(need, p.clean)
			p.clean -= got
			p.resident -= got
			return got
		},
		Evict: func(need int64, _ simclock.Time) int64 {
			got := min64(need, p.artifacts)
			p.artifacts -= got
			p.resident -= got
			return got
		},
		Kill: func(_ simclock.Time) int64 {
			if p.victim == 0 {
				return 0
			}
			got := p.victim
			p.victim = 0
			p.resident -= got
			p.kills++
			return got
		},
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func TestLadderClimbsInOrder(t *testing.T) {
	a := New(Config{Capacity: 100 * mib})
	p := &ladderPool{resident: 95 * mib, clean: 20 * mib, artifacts: 40 * mib, victim: 30 * mib}
	l := NewLadder(a, nil, p.hooks())

	a.Set("pool", p.resident, 0)
	freed := l.Respond(0)
	a.Set("pool", p.resident, 0)

	// Need = 95 - 65 = 30MiB: all 20MiB clean plus 10MiB of artifacts,
	// shed engaged (level was full), and no kill (no physical overage).
	if freed != 30*mib {
		t.Errorf("freed %d, want %d", freed, 30*mib)
	}
	st := l.Stats()
	if st.BalloonReclaimed != 20*mib || st.Evicted != 10*mib {
		t.Errorf("balloon=%d evicted=%d, want 20MiB/10MiB", st.BalloonReclaimed, st.Evicted)
	}
	if !l.Shedding() || st.ShedEngaged != 1 {
		t.Errorf("shedding=%v engaged=%d, want on/1", l.Shedding(), st.ShedEngaged)
	}
	if st.Kills != 0 || p.kills != 0 {
		t.Errorf("kill fired without physical overage")
	}

	// Next tick: residency is back at 65MiB (level none), shed clears.
	l.Respond(simclock.Time(ms))
	if l.Shedding() {
		t.Error("shed still engaged after pressure cleared")
	}
}

func TestLadderKillsOnlyWhenReclaimFallsShort(t *testing.T) {
	a := New(Config{Capacity: 100 * mib})
	// 120MiB resident, only 5MiB reclaimable: overage survives reclaim.
	p := &ladderPool{resident: 120 * mib, clean: 5 * mib, victim: 40 * mib}
	l := NewLadder(a, nil, p.hooks())

	a.Set("pool", p.resident, 0)
	freed := l.Respond(0)
	a.Set("pool", p.resident, 0)

	if p.kills != 1 {
		t.Fatalf("kills=%d, want 1", p.kills)
	}
	if freed != 45*mib { // 5 clean + 40 victim
		t.Errorf("freed %d, want %d", freed, 45*mib)
	}
	st := l.Stats()
	if st.Kills != 1 || st.KilledBytes != 40*mib {
		t.Errorf("ladder kills=%d killed=%d, want 1/40MiB", st.Kills, st.KilledBytes)
	}
	if a.Used() != 75*mib {
		t.Errorf("used after kill %d, want %d", a.Used(), 75*mib)
	}
}

func TestLadderNilHooksDegradeToKill(t *testing.T) {
	// A libos pool: no balloon, no store. The only lever is the killer.
	a := New(Config{Capacity: 100 * mib})
	p := &ladderPool{resident: 120 * mib, victim: 50 * mib}
	h := p.hooks()
	h.Balloon, h.Evict, h.Deflate = nil, nil, nil
	l := NewLadder(a, nil, h)

	a.Set("pool", p.resident, 0)
	l.Respond(0)
	if p.kills != 1 {
		t.Errorf("kills=%d, want 1 (straight to the killer)", p.kills)
	}
	st := l.Stats()
	if st.BalloonReclaimed != 0 || st.Evicted != 0 {
		t.Errorf("nil hooks reclaimed bytes: %+v", st)
	}
}

func TestLadderReclaimStall(t *testing.T) {
	inj := faults.MustNew(faults.Plan{Seed: 1, Rules: []faults.Rule{
		{Site: SiteReclaimStall, NthHit: 1},
	}})
	a := New(Config{Capacity: 100 * mib})
	p := &ladderPool{resident: 80 * mib, clean: 30 * mib}
	l := NewLadder(a, inj, p.hooks())

	a.Set("pool", p.resident, 0)
	if freed := l.Respond(0); freed != 0 {
		t.Errorf("stalled tick freed %d bytes", freed)
	}
	if st := l.Stats(); st.ReclaimStalls != 1 {
		t.Errorf("stalls=%d, want 1", st.ReclaimStalls)
	}
	// The next tick proceeds normally.
	if freed := l.Respond(simclock.Time(ms)); freed != 15*mib {
		t.Errorf("post-stall tick freed %d, want %d", freed, 15*mib)
	}
}

func TestLadderDeflateBoundedBySomeThreshold(t *testing.T) {
	a := New(Config{Capacity: 100 * mib})
	var asked int64
	l := NewLadder(a, nil, Hooks{
		Deflate: func(allowance int64, _ simclock.Time) int64 {
			asked = allowance
			return allowance
		},
	})
	a.Set("pool", 50*mib, 0)
	l.Respond(0)
	// Headroom below the 70% threshold: 70 - 50 = 20MiB.
	if asked != 20*mib {
		t.Errorf("deflate allowance %d, want %d", asked, 20*mib)
	}
	if st := l.Stats(); st.Deflated != 20*mib {
		t.Errorf("deflated %d, want %d", st.Deflated, 20*mib)
	}
}
