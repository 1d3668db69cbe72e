package simclock

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineEqualTimesPopInScheduleOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 8; i++ {
		e.Schedule(10, func(Time) { got = append(got, i) })
	}
	if n := e.Run(); n != 8 || len(got) != 8 {
		t.Fatalf("ran %d events (%v), want 8", n, got)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("pop order = %v, want schedule order", got)
		}
	}
}

func TestEnginePastScheduleRunsAtNow(t *testing.T) {
	e := NewEngine()
	var at []Time
	e.Schedule(50, func(now Time) {
		// Both land at now, behind the event already due at 50.
		e.Schedule(20, func(now Time) { at = append(at, now) })
		e.Schedule(-1, func(now Time) { at = append(at, now) })
	})
	e.Schedule(50, func(now Time) { at = append(at, -now) })
	e.Run()
	want := []Time{-50, 50, 50}
	if len(at) != len(want) {
		t.Fatalf("ran at %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("ran at %v, want %v", at, want)
		}
	}
	if e.Now() != 50 {
		t.Fatalf("clock at %v, want 50", e.Now())
	}
}

func TestEngineSampleBoundaryFiresBeforeEventAtBoundary(t *testing.T) {
	e := NewEngine()
	var log []string
	e.Clock().Sample(100, func(now Time) { log = append(log, "sample@"+now.String()) })
	e.Schedule(100, func(now Time) { log = append(log, "event@"+now.String()) })
	e.Run()
	want := []string{"sample@" + Time(100).String(), "event@" + Time(100).String()}
	if len(log) != 2 || log[0] != want[0] || log[1] != want[1] {
		t.Fatalf("log = %v, want %v", log, want)
	}
}

func TestEngineRunReportsPops(t *testing.T) {
	e := NewEngine()
	e.Schedule(3, func(now Time) {
		e.Schedule(now+1, func(Time) {}) // scheduled mid-run, still counted
	})
	e.Schedule(1, func(Time) {})
	if n := e.Run(); n != 3 {
		t.Fatalf("Run popped %d events, want 3", n)
	}
	if n := e.Run(); n != 0 {
		t.Fatalf("Run on an empty queue popped %d, want 0", n)
	}
	if e.Now() != 4 {
		t.Fatalf("clock at %v, want 4", e.Now())
	}
}

func TestEngineRunUntilLeavesLaterEventsQueued(t *testing.T) {
	e := NewEngine()
	ran := 0
	for _, at := range []Time{5, 10, 11, 30} {
		e.Schedule(at, func(Time) { ran++ })
	}
	if n := e.RunUntil(10); n != 2 || ran != 2 {
		t.Fatalf("RunUntil(10) popped %d (ran %d), want 2", n, ran)
	}
	if e.Now() != 10 {
		t.Fatalf("clock at %v after RunUntil(10), want 10", e.Now())
	}
	if n := e.RunUntil(20); n != 1 || e.Now() != 20 {
		t.Fatalf("RunUntil(20) popped %d, clock %v; want 1 at 20", n, e.Now())
	}
	if n := e.Run(); n != 1 || e.Now() != 30 {
		t.Fatalf("Run popped %d, clock %v; want the one event left at 30", n, e.Now())
	}
}

// Property: whatever order events are scheduled in, they pop sorted by
// (at, schedule order) — the ordering every replay depends on.
func TestEnginePopOrderProperty(t *testing.T) {
	f := func(ats []uint8) bool {
		e := NewEngine()
		type rec struct {
			at  Time
			seq int
		}
		var got []rec
		for i, a := range ats {
			r := rec{Time(a % 16), i}
			e.Schedule(r.at, func(Time) { got = append(got, r) })
		}
		if e.Run() != len(ats) {
			return false
		}
		return sort.SliceIsSorted(got, func(i, j int) bool {
			return got[i].at < got[j].at || (got[i].at == got[j].at && got[i].seq < got[j].seq)
		}) && len(got) == len(ats)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// tally is a handler that counts its firings.
type tally struct{ fired int }

func (t *tally) Fire(Time) { t.fired++ }

// Handlers and Schedule'd funcs share one queue and one order.
func TestEnginePostAndScheduleShareOneOrder(t *testing.T) {
	e := NewEngine()
	h := &tally{}
	var log []int
	e.Schedule(10, func(Time) { log = append(log, h.fired) })
	e.Post(10, h)
	e.Schedule(10, func(Time) { log = append(log, h.fired) })
	e.Post(5, h)
	if n := e.Run(); n != 4 {
		t.Fatalf("Run popped %d events, want 4", n)
	}
	if len(log) != 2 || log[0] != 1 || log[1] != 2 {
		t.Fatalf("handler firings seen by the funcs = %v, want [1 2]", log)
	}
}

// flag is a timer that counts its live firings and is moot once set.
type flag struct {
	tally
	moot bool
}

func (f *flag) Moot() bool { return f.moot }

func (f *flag) Fire(now Time) {
	if !f.moot {
		f.tally.Fire(now)
	}
}

// Posting a handler and popping it allocates nothing: events are values
// in the heap's backing array, and the handler is the caller's. A warm
// lane's posts, fires and drops allocate nothing either.
func TestEnginePostAndPopAllocateNothing(t *testing.T) {
	e := NewEngine()
	l := e.Lane()
	h, live, dead := &tally{}, &flag{}, &flag{moot: true}
	const batch = 64
	burst := func() {
		now := e.Now()
		for i := 0; i < batch; i++ {
			e.Post(now.Add(Duration(batch-i)), h)
			l.Post(now.Add(Duration(i%8)), live) // some due before the head
			l.Post(now.Add(Duration(i)), dead)
		}
		e.Run()
	}
	burst() // grow the queue's and the lane's backing arrays once
	if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
		t.Fatalf("%v allocations per burst of %d events and %d lane timers, want 0", allocs, batch, 2*batch)
	}
	if h.fired != 102*batch || live.fired != 102*batch {
		t.Fatalf("handler fired %d times and live timer %d, want %d each", h.fired, live.fired, 102*batch)
	}
}

// laneFixture queues a plain event at 5 that makes two of three lane
// timers moot: the live one due at 10 and the moot ones at 20 and 30.
func laneFixture() (*Engine, *flag) {
	e := NewEngine()
	l := e.Lane()
	live, late, later := &flag{}, &flag{}, &flag{}
	l.Post(10, live)
	l.Post(20, late)
	l.Post(30, later)
	e.Schedule(5, func(Time) { late.moot, later.moot = true, true })
	return e, live
}

// Run counts each dropped timer as the no-op pop it replaces, and ends
// the clock at the latest instant a dropped timer was due.
func TestEngineRunCountsLaneDrops(t *testing.T) {
	e, live := laneFixture()
	if n := e.Run(); n != 4 {
		t.Fatalf("Run reported %d events, want 4 (2 pops and 2 drops)", n)
	}
	if live.fired != 1 || e.drops != 2 {
		t.Fatalf("live timer fired %d times, %d dropped; want 1 and 2", live.fired, e.drops)
	}
	if e.Now() != 30 {
		t.Fatalf("clock at %v, want 30, the latest dropped instant", e.Now())
	}
	if n := e.Run(); n != 0 || e.Now() != 30 {
		t.Fatalf("second Run reported %d events at %v, want 0 at 30", n, e.Now())
	}
}

// RunUntil counts a drop in the call that makes it, whenever the timer
// was due, and leaves the clock at its horizon; a later Run still moves
// the clock to the latest dropped instant.
func TestEngineRunUntilCountsDropsWhenMade(t *testing.T) {
	e, _ := laneFixture()
	if n := e.RunUntil(15); n != 4 || e.Now() != 15 {
		t.Fatalf("RunUntil(15) reported %d events at %v, want 4 at 15", n, e.Now())
	}
	if n := e.RunUntil(25); n != 0 || e.Now() != 25 {
		t.Fatalf("RunUntil(25) reported %d events at %v, want 0 at 25", n, e.Now())
	}
	if n := e.Run(); n != 0 || e.Now() != 30 {
		t.Fatalf("Run reported %d events at %v, want 0 at 30", n, e.Now())
	}
}

// An event posted late under a reserved number pops before a
// same-instant event that was posted between the reservation and it.
func TestEngineReservedSeqKeepsItsPlace(t *testing.T) {
	e := NewEngine()
	var log []string
	seq := e.Reserve(1)
	e.Schedule(10, func(Time) { log = append(log, "posted") })
	e.Schedule(5, func(Time) {
		e.PostSeq(10, seq, Func(func(Time) { log = append(log, "reserved") }))
	})
	if n := e.Run(); n != 3 {
		t.Fatalf("Run popped %d events, want 3", n)
	}
	if len(log) != 2 || log[0] != "reserved" || log[1] != "posted" {
		t.Fatalf("pop order = %v, want [reserved posted]", log)
	}
}

// PostSeq refuses an instant in the past instead of moving it up to now,
// where it would pop after events it was reserved to precede.
func TestEnginePostSeqPanicsOnPastInstant(t *testing.T) {
	e := NewEngine()
	seq := e.Reserve(1)
	e.Schedule(10, func(Time) {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("PostSeq at 9 with the clock at 10 did not panic")
		}
	}()
	e.PostSeq(9, seq, &tally{})
}

// An arrival source pops in exactly the order the same arrivals posted
// up front would, ties with other events included, asks for each
// arrival's instant once and in index order, and holds one arrival in
// the queue at a time.
func TestEngineArrivalsMatchUpFrontPosting(t *testing.T) {
	f := func(gaps, others []uint8) bool {
		ats := make([]Time, len(gaps))
		var at Time
		for i, g := range gaps {
			at += Time(g % 3) // ties between arrivals and with the others
			ats[i] = at
		}
		deep := false // more than one arrival queued at once
		run := func(source bool) (log []int, asked []int) {
			e := NewEngine()
			arrive := func(i int, now Time) { log = append(log, i) }
			if source {
				e.Arrivals(len(ats), func(i int) Time { asked = append(asked, i); return ats[i] }, func(i int, now Time) {
					deep = deep || len(e.q) > 1+len(others)
					arrive(i, now)
				})
			} else {
				for i := range ats {
					e.Schedule(ats[i], func(now Time) { arrive(i, now) })
				}
			}
			for j, o := range others {
				e.Schedule(Time(o%32), func(Time) { log = append(log, -1-j) })
			}
			e.Run()
			return log, asked
		}
		want, _ := run(false)
		got, asked := run(true)
		for i, a := range asked {
			if a != i {
				return false
			}
		}
		return !deep && len(asked) == len(ats) && slices.Equal(got, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
