package slo

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"lupine/internal/faults"
	"lupine/internal/simclock"
	"lupine/internal/telemetry"
)

// attributeFullScan is attribute as it was before the scope learned to
// read the log once: every incident scans the tracer's whole event log.
// FuzzAttributionMatchesFullScan holds attribute to it.
func (s *Scope) attributeFullScan(st *objState, ri int, now simclock.Time, long simclock.Duration) Incident {
	from := now.Add(-(long + s.every))
	if from < 0 {
		from = 0
	}
	faultFrom := now.Add(-(2*long + s.every))
	if faultFrom < 0 {
		faultFrom = 0
	}
	type agg struct {
		c   Cause
		ord int // insertion order breaks LastAt ties deterministically
	}
	collect := func(items []Cause) []Cause {
		byName := map[string]*agg{}
		var order []string
		for _, c := range items {
			a, ok := byName[c.Name]
			if !ok {
				a = &agg{c: c, ord: len(order)}
				byName[c.Name] = a
				order = append(order, c.Name)
				continue
			}
			a.c.Count += c.Count
			if c.LastAt > a.c.LastAt {
				a.c.LastAt = c.LastAt
			}
		}
		out := make([]Cause, 0, len(order))
		for _, n := range order {
			out = append(out, byName[n].c)
		}
		// Most recent last-occurrence first; insertion order (itself
		// deterministic) breaks ties.
		for i := 1; i < len(out); i++ {
			for j := i; j > 0 && out[j].LastAt > out[j-1].LastAt; j-- {
				out[j], out[j-1] = out[j-1], out[j]
			}
		}
		return out
	}

	var fires, events []Cause
	for _, e := range s.tr.EventsSince(0) {
		if e.Cat == "faults" {
			// A fire is a fault cause on the scope's own track only.
			if e.Track == s.track && e.At >= faultFrom && e.At <= now {
				fires = append(fires, Cause{Kind: "fault", Name: e.Name, Count: 1, LastAt: e.At})
			}
			continue
		}
		if e.At < from || e.At > now || !onTrack(e.Track, s.track) || !causeEvent(e) {
			continue
		}
		events = append(events, Cause{Kind: "event", Name: e.Cat + "/" + e.Name, Count: 1, LastAt: e.At})
	}
	causes := append(collect(fires), collect(events)...)
	if len(causes) > maxCauses {
		causes = causes[:maxCauses]
	}
	return Incident{Objective: st.o.Name, Rule: st.o.Rules[ri].Name, At: now, Causes: causes}
}

var sloTestSite2 = faults.RegisterSite("slotest/drop", "slotest", "second test-only site")

// The attribution fuzz stream. The first byte holds flags; every three
// bytes after it are one op: a code and two arguments.
const (
	flagInjector = 1 << iota // the scope opens with SetInjector, landing the injector's later fires on its track
	flagObserve              // the injector's fires land as "faults" instants on the scope's track from the start
	flagSubLane              // with flagObserve: on the sub-lane fuzzTrack+"/r0" instead, where they are never causes
)

const (
	opOpen    = iota // create the scope; ops before it fill the logs of a shared tracer
	opGood           // a: good events
	opBad            // a: bad events
	opSample         // advance one interval and sample
	opInstant        // a: which instant; b: its track and its offset from now
	opFire           // a: which site; b: its offset from the guest clock
	opReboot         // the guest clock restarts from 0
	numOps
)

const (
	fuzzTrack = "breach/lupine+mp"
	fuzzEvery = 100 * usec
)

var (
	fuzzTracks = []string{fuzzTrack, fuzzTrack + "/r0", fuzzTrack + "+aslr", fuzzTrack + "+aslr/r0", "netsplit/lupine/rr"}
	fuzzEvents = [][2]string{
		{"fleet", "health:down"}, {"fleet", "admit"}, {"region", "repave"}, {"faults", sloTestSite},
		{"fleet", "breaker:open"}, {"hostmem", "pressure->stall"}, {"slo", "alert:x/fast"}, {"attack", "exploit"},
	}
	fuzzSites = []string{sloTestSite, sloTestSite2}
)

// op encodes one fuzz op.
func op(code, a, b byte) []byte { return []byte{code, a, b} }

// stream concatenates flags and ops into one fuzz input.
func stream(flags byte, ops ...[]byte) []byte {
	return append([]byte{flags}, slices.Concat(ops...)...)
}

// repeat lists ops n times over.
func repeat(n int, ops ...[]byte) []byte {
	var out []byte
	for i := 0; i < n; i++ {
		out = append(out, slices.Concat(ops...)...)
	}
	return out
}

// instantAt encodes an instant on track ti stamped q quarter-intervals
// from now, q in [-16, 15].
func instantAt(ev, ti byte, q int) []byte {
	return op(opInstant, ev, ti+byte(q+16)<<3)
}

// FuzzAttributionMatchesFullScan drives a scope over one stream of
// traffic, samples, instants and fires, and holds every incident it
// raises to attributeFullScan over the logs as they stood at that
// incident.
func FuzzAttributionMatchesFullScan(f *testing.F) {
	good, bad, sample := op(opGood, 7, 0), op(opBad, 7, 0), op(opSample, 0, 0)
	// A shared tracer that already holds another row's events, and this
	// row's own events and fires from before the scope opened.
	f.Add(stream(flagInjector|flagObserve,
		instantAt(0, 4, 0), instantAt(2, 4, 0), instantAt(0, 0, 0), op(opFire, 0, 128), op(opSample, 0, 0),
		op(opOpen, 0, 0), good, sample, bad, instantAt(0, 1, 0), op(opFire, 1, 128), sample, bad, sample, good, sample))
	// A sibling track that shares the scope track's prefix.
	f.Add(stream(0, op(opOpen, 0, 0), good, sample, bad,
		instantAt(2, 2, 0), instantAt(4, 3, 0), instantAt(5, 1, 0), instantAt(7, 0, 0), sample, bad, sample))
	// Instants stamped before and after now: the future one ranks only
	// in a later window, the oldest in none.
	f.Add(stream(flagInjector, op(opOpen, 0, 0), good, sample, sample, bad,
		instantAt(0, 0, -16), instantAt(2, 1, -6), instantAt(5, 0, 15), instantAt(4, 1, 6), sample, bad, sample,
		good, sample, bad, sample, bad, sample))
	// Fault instants on the track, with and without an injector; and an
	// injector observed on a sub-lane, whose fires are never causes.
	for _, flags := range []byte{flagInjector | flagObserve, flagObserve, flagObserve | flagSubLane} {
		f.Add(stream(flags, op(opOpen, 0, 0), good, sample, bad,
			op(opFire, 0, 128), instantAt(3, 0, 0), instantAt(3, 1, -2), op(opFire, 1, 120), sample, bad, sample))
	}
	// An injector whose fire times restart from 0, across enough samples
	// for early candidates to fall behind every window.
	f.Add(stream(flagInjector, op(opOpen, 0, 0),
		repeat(6, good, sample, bad, op(opFire, 0, 128), instantAt(0, 0, 0), sample, bad, sample,
			op(opReboot, 0, 0), op(opFire, 1, 140), good, sample, sample, sample, sample, sample, sample)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		flags, data := data[0], data[1:]
		reg, tr := telemetry.NewRegistry(), telemetry.New()
		inj := faults.MustNew(faults.Plan{Rules: []faults.Rule{{Site: fuzzSites[0], Prob: 1}, {Site: fuzzSites[1], Prob: 1}}})
		if flags&flagObserve != 0 {
			track := fuzzTrack
			if flags&flagSubLane != 0 {
				track = fuzzTracks[1]
			}
			inj.Observe(tr, track)
		}
		var (
			s     *Scope
			now   simclock.Time
			epoch simclock.Time // guest clock origin
		)
		for ; len(data) >= 3; data = data[3:] {
			code, a, b := data[0]%numOps, data[1], data[2]
			switch code {
			case opOpen:
				if s == nil {
					s = NewScope(fuzzTrack, reg, tr, fuzzEvery)
					if flags&flagInjector != 0 {
						s.SetInjector(inj)
					}
					s.Add(Objective{Name: "availability", Good: []string{"g"}, Bad: []string{"b"}, Target: 0.9,
						Rules: DefaultRules(4*fuzzEvery, 5, 2)})
					s.Add(Objective{Name: "coinflip", Good: []string{"g"}, Bad: []string{"b"}, Target: 0.5,
						Rules: []BurnRule{{Name: "instant", Long: fuzzEvery / 2, Short: fuzzEvery / 2, MaxBurn: 1.5}}})
				}
			case opGood:
				reg.Counter("g").Add(int64(a%8) + 1)
			case opBad:
				reg.Counter("b").Add(int64(a%8) + 1)
			case opSample:
				now = now.Add(fuzzEvery)
				if s == nil {
					continue
				}
				seen := make([]int, len(s.objs))
				for i, st := range s.objs {
					seen[i] = len(st.incidents)
				}
				s.Sample(now)
				for i, st := range s.objs {
					for _, in := range st.incidents[seen[i]:] {
						ri := slices.IndexFunc(st.o.Rules, func(r BurnRule) bool { return r.Name == in.Rule })
						want := s.attributeFullScan(st, ri, in.At, st.o.Rules[ri].Long)
						if in.Objective != want.Objective || in.Rule != want.Rule || in.At != want.At ||
							!slices.Equal(in.Causes, want.Causes) {
							t.Fatalf("incident %+v, full scan %+v", in, want)
						}
					}
				}
			case opInstant:
				ev := fuzzEvents[int(a)%len(fuzzEvents)]
				at := max(0, now.Add(simclock.Duration(int(b>>3)-16)*fuzzEvery/4))
				tr.Instant(ev[0], fuzzTracks[int(b&7)%len(fuzzTracks)], ev[1], at)
			case opFire:
				guest := now - epoch
				inj.Hit(fuzzSites[a%2], max(0, guest.Add(simclock.Duration(int(b)-128)*fuzzEvery/16)))
			case opReboot:
				epoch = now
			}
		}
	})
}

// One incident's attribution reads only what was recorded since the
// last one and keeps only its own track's causes, so what it allocates
// does not grow with the unrelated events a shared tracer holds.
func TestAttributionCostIgnoresUnrelatedEvents(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// The counts are process-wide, and under the race detector a runtime
	// goroutine can allocate inside the window: the scavenger, woken by a
	// GC just before it, grows a timer heap when it re-arms its sleep.
	// Such noise only ever adds, so each side takes the fewest objects
	// and bytes of a few fresh incidents; attribution's own allocations
	// are the same in every one.
	measure := func(unrelated int) (allocs, bytes uint64) {
		allocs, bytes = math.MaxUint64, math.MaxUint64
		for range 3 {
			reg, tr := telemetry.NewRegistry(), telemetry.New()
			s := NewScope("row", reg, tr, 100*usec)
			inj := faults.MustNew(faults.Plan{Rules: []faults.Rule{{Site: sloTestSite, NthHit: 1}}})
			s.SetInjector(inj)
			s.Add(Objective{Name: "availability", Good: []string{"row.good"}, Bad: []string{"row.bad"},
				Target: 0.99, Rules: []BurnRule{{Name: "fast", Long: 100 * usec, Short: 100 * usec, MaxBurn: 50}}})
			for i := 0; i < unrelated; i++ {
				tr.Instant("fleet", "other/vm0", "health:down", simclock.Time(i)) // cause-grade, another row's
			}
			inj.Hit(sloTestSite, simclock.Time(150*usec))
			tr.Instant("fleet", "row/vm0", "health:down", simclock.Time(160*usec))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			in := s.attribute(s.objs[0], 0, simclock.Time(200*usec), 100*usec)
			runtime.ReadMemStats(&after)
			if len(in.Causes) != 2 {
				t.Fatalf("causes = %+v, want the fault and the on-track event", in.Causes)
			}
			allocs = min(allocs, after.Mallocs-before.Mallocs)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		return allocs, bytes
	}
	smallAllocs, smallBytes := measure(1_000)
	bigAllocs, bigBytes := measure(100_000)
	if smallAllocs != bigAllocs || smallBytes != bigBytes {
		t.Fatalf("one incident allocated %d objects, %d bytes after 1k unrelated events and %d, %d after 100k",
			smallAllocs, smallBytes, bigAllocs, bigBytes)
	}
}
