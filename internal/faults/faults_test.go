package faults

import (
	"math"
	"runtime"
	"strconv"
	"testing"

	"lupine/internal/simclock"
	"lupine/internal/telemetry"
)

func init() {
	RegisterSite("test/alpha", "test", "first test site")
	RegisterSite("test/beta", "test", "second test site")
}

func TestValidateRejectsBadRules(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
	}{
		{"unregistered site", Plan{Rules: []Rule{{Site: "test/nope", NthHit: 1}}}},
		{"no trigger", Plan{Rules: []Rule{{Site: "test/alpha"}}}},
		{"prob out of range", Plan{Rules: []Rule{{Site: "test/alpha", Prob: 1.5}}}},
		{"empty window", Plan{Rules: []Rule{{Site: "test/alpha", NthHit: 1, From: 10, To: 5}}}},
	}
	for _, c := range cases {
		if err := c.plan.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a bad plan", c.name)
		}
	}
}

func TestNthHitFiresExactlyOnce(t *testing.T) {
	inj := MustNew(Plan{Rules: []Rule{{Site: "test/alpha", NthHit: 3, Param: 42}}})
	fires := 0
	for i := 0; i < 10; i++ {
		d := inj.Hit("test/alpha", 0)
		if d.Fire {
			fires++
			if i != 2 {
				t.Errorf("fired on hit %d, want hit 3", i+1)
			}
			if d.Param != 42 {
				t.Errorf("Param = %d, want 42", d.Param)
			}
		}
	}
	if fires != 1 {
		t.Fatalf("nth-hit rule fired %d times, want 1", fires)
	}
}

func TestWindowGatesHits(t *testing.T) {
	ms := simclock.Time(simclock.Millisecond)
	inj := MustNew(Plan{Rules: []Rule{{Site: "test/alpha", NthHit: 1, From: 5 * ms, To: 10 * ms}}})
	if d := inj.Hit("test/alpha", 4*ms); d.Fire {
		t.Error("fired before window")
	}
	if d := inj.Hit("test/alpha", 10*ms); d.Fire {
		t.Error("fired at window end (To is exclusive)")
	}
	if d := inj.Hit("test/alpha", 5*ms); !d.Fire {
		t.Error("did not fire on first in-window hit")
	}
}

func TestProbabilityIsDeterministicAndLimited(t *testing.T) {
	plan := Plan{Seed: 7, Rules: []Rule{{Site: "test/beta", Prob: 0.3, Limit: 4}}}
	run := func() []int {
		inj := MustNew(plan)
		var fires []int
		for i := 0; i < 200; i++ {
			if inj.Hit("test/beta", 0).Fire {
				fires = append(fires, i)
			}
		}
		return fires
	}
	a, b := run(), run()
	if len(a) != 4 {
		t.Fatalf("limited rule fired %d times, want 4", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged: %v vs %v", a, b)
		}
	}
	// A different seed must produce a different storm.
	plan.Seed = 8
	inj := MustNew(plan)
	var c []int
	for i := 0; i < 200; i++ {
		if inj.Hit("test/beta", 0).Fire {
			c = append(c, i)
		}
	}
	same := len(a) == len(c)
	for i := 0; same && i < len(a); i++ {
		same = a[i] == c[i]
	}
	if same {
		t.Error("different seeds produced an identical storm")
	}
}

func TestNilInjectorNeverFires(t *testing.T) {
	var inj *Injector
	tr := telemetry.New()
	inj.Observe(tr, "row")
	for i := 0; i < 10; i++ {
		if d := inj.Hit("test/alpha", simclock.Time(i)); d != (Decision{}) {
			t.Fatalf("nil injector hit %d decided %+v, want the zero Decision", i, d)
		}
	}
	if events := tr.EventsSince(0); len(events) != 0 {
		t.Fatalf("nil injector recorded %+v", events)
	}
}

func TestArmsExactlyTheSitesWithRules(t *testing.T) {
	inj := MustNew(Plan{Rules: []Rule{{Site: "test/alpha", Prob: 0.5}}})
	for site, want := range map[string]bool{"test/alpha": true, "test/beta": false, "test/nope": false} {
		if got := inj.Arms(site); got != want {
			t.Errorf("Arms(%q) = %v, want %v", site, got, want)
		}
	}
	var nilInj *Injector
	if nilInj.Arms("test/alpha") {
		t.Error("nil injector arms a site")
	}
}

// A Hit on a site no rule names draws nothing and counts nothing, so a
// caller that skips it (because Arms said false) replays the same storm.
func TestUnarmedHitLeavesInjectorUntouched(t *testing.T) {
	plan := Plan{Seed: 9, Rules: []Rule{{Site: "test/alpha", Prob: 0.5}}}
	plain, probed := MustNew(plan), MustNew(plan)
	tr := telemetry.New()
	probed.Observe(tr, "row")
	fires := 0
	for i := 0; i < 64; i++ {
		recorded := len(tr.EventsSince(0))
		if d := probed.Hit("test/beta", simclock.Time(i)); d != (Decision{}) {
			t.Fatalf("unarmed hit %d decided %+v, want the zero Decision", i, d)
		}
		if len(tr.EventsSince(0)) != recorded {
			t.Fatalf("unarmed hit %d recorded a fire", i)
		}
		want, got := plain.Hit("test/alpha", simclock.Time(i)), probed.Hit("test/alpha", simclock.Time(i))
		if got != want {
			t.Fatalf("armed hit %d after an unarmed one = %+v, want %+v", i, got, want)
		}
		if want.Fire {
			fires++
		}
	}
	if fires == 0 || fires == 64 {
		t.Fatalf("Prob 0.5 fired %d of 64: the stream never decided anything", fires)
	}
}

// A Hit that fires nothing allocates nothing, so an armed plan costs
// the hot paths that consult it no garbage: a site no rule names, an
// armed site whose rule does not fire, and a nil injector. A fire on an
// unobserved injector allocates nothing either: the injector keeps no
// record of it.
func TestHitAllocations(t *testing.T) {
	ms := simclock.Time(simclock.Millisecond)
	spent := MustNew(Plan{Rules: []Rule{{Site: "test/alpha", NthHit: 1}}})
	spent.Hit("test/alpha", 0) // the rule's one fire
	cases := []struct {
		name string
		inj  *Injector
		site string
	}{
		{"unarmed site", MustNew(Plan{Rules: []Rule{{Site: "test/alpha", NthHit: 1}}}), "test/beta"},
		{"past its nth hit", spent, "test/alpha"},
		{"window not open yet", MustNew(Plan{Rules: []Rule{{Site: "test/alpha", NthHit: 1, From: 5 * ms}}}), "test/alpha"},
		{"nil injector", nil, "test/alpha"},
	}
	for _, c := range cases {
		if allocs := testing.AllocsPerRun(100, func() { c.inj.Hit(c.site, 0) }); allocs != 0 {
			t.Errorf("%s: Hit allocates %v per call, want 0", c.name, allocs)
		}
	}

	// The byte count is process-wide, so a runtime goroutine can add to
	// it inside the window; such noise only ever adds, so take the fewest
	// bytes of a few fresh trials.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	bytes := uint64(math.MaxUint64)
	for range 3 {
		inj := MustNew(Plan{Rules: []Rule{{Site: "test/alpha", Prob: 1}}})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 10_000; i++ {
			if !inj.Hit("test/alpha", simclock.Time(i)).Fire {
				t.Fatalf("hit %d of a Prob 1 rule did not fire", i)
			}
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	if bytes != 0 {
		t.Errorf("10,000 fires on an unobserved injector allocated %d bytes, want 0", bytes)
	}
}

func TestRulesAreIndependent(t *testing.T) {
	inj := MustNew(Plan{Rules: []Rule{
		{Site: "test/alpha", NthHit: 1, Param: 1},
		{Site: "test/alpha", NthHit: 2, Param: 2},
		{Site: "test/beta", NthHit: 1, Param: 3},
	}})
	if d := inj.Hit("test/alpha", 0); !d.Fire || d.Param != 1 {
		t.Fatalf("hit 1: %+v, want fire with Param 1", d)
	}
	if d := inj.Hit("test/alpha", 0); !d.Fire || d.Param != 2 {
		t.Fatalf("hit 2: %+v, want fire with Param 2", d)
	}
	if d := inj.Hit("test/beta", 0); !d.Fire || d.Param != 3 {
		t.Fatalf("beta hit: %+v, want fire with Param 3", d)
	}
	if d := inj.Hit("test/alpha", 0); d.Fire {
		t.Fatalf("third alpha hit: %+v, want both alpha rules spent", d)
	}
}

func TestSitesListsRegistrations(t *testing.T) {
	found := 0
	for _, s := range Sites() {
		if s.Subsystem == "test" {
			found++
		}
	}
	if found != 2 {
		t.Errorf("Sites() lists %d test sites, want 2", found)
	}
}

func TestStreamDeterministicAndSeedSensitive(t *testing.T) {
	a, b := NewStream(7), NewStream(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with the same seed diverged at draw %d", i)
		}
	}
	c, d := NewStream(1), NewStream(2)
	same := 0
	for i := 0; i < 100; i++ {
		if c.Uint64() == d.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/100 identical draws across different seeds", same)
	}
	s := NewStream(99)
	for i := 0; i < 1000; i++ {
		if f := s.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
		if n := s.Intn(13); n < 0 || n >= 13 {
			t.Fatalf("Intn(13) out of range: %d", n)
		}
	}
}

// TestNthHitAndProbabilityCombine pins how deterministic and
// probabilistic triggers compose on the SAME site: every matching rule
// counts every hit, probabilistic rules draw from the stream on every
// in-window hit whether or not another rule already fired, and the
// lowest-indexed triggering rule wins the decision. Seed 1 is chosen so
// the Prob rule's trigger pattern (hits 4, 5, 9, ...) avoids the NthHit
// rule's hit 3 — the two rules fire on disjoint hits and the combined
// sequence is exactly their union, limit applied to wins only.
func TestNthHitAndProbabilityCombine(t *testing.T) {
	// Reference: the probabilistic rule alone.
	ref := MustNew(Plan{Seed: 1, Rules: []Rule{
		{Site: "test/alpha", Prob: 0.5, Limit: 2, Param: 2},
	}})
	var refFires []int
	for hit := 1; hit <= 20; hit++ {
		if ref.Hit("test/alpha", 0).Fire {
			refFires = append(refFires, hit)
		}
	}
	if len(refFires) != 2 || refFires[0] != 4 || refFires[1] != 5 {
		t.Fatalf("reference prob rule fired on hits %v, want [4 5] (seed drifted?)", refFires)
	}

	// Combined: an NthHit rule ahead of the same prob rule. NthHit rules
	// never draw from the stream, so the prob rule sees the identical draw
	// sequence and fires on the identical hits.
	inj := MustNew(Plan{Seed: 1, Rules: []Rule{
		{Site: "test/alpha", NthHit: 3, Param: 1},
		{Site: "test/alpha", Prob: 0.5, Limit: 2, Param: 2},
	}})
	want := map[int]int64{3: 1, 4: 2, 5: 2} // hit -> winning Param
	fires := 0
	for hit := 1; hit <= 20; hit++ {
		d := inj.Hit("test/alpha", 0)
		if d.Fire {
			fires++
		}
		if p, ok := want[hit]; ok {
			if !d.Fire || d.Param != p {
				t.Errorf("hit %d: got fire=%v param=%d, want param %d", hit, d.Fire, d.Param, p)
			}
		} else if d.Fire {
			t.Errorf("hit %d fired unexpectedly (param %d)", hit, d.Param)
		}
	}
	if fires != 3 {
		t.Errorf("fired %d times, want 3", fires)
	}
}

// TestSuppressedNthHitIsLostNotDeferred: when an earlier rule wins the
// hit an NthHit rule would have fired on, the nth-hit trigger is
// consumed, not deferred — the rule's state is a pure function of the
// hit sequence, so replay stays bit-exact.
func TestSuppressedNthHitIsLostNotDeferred(t *testing.T) {
	inj := MustNew(Plan{Rules: []Rule{
		{Site: "test/alpha", Prob: 1.0, Limit: 1, Param: 9},
		{Site: "test/alpha", NthHit: 1, Param: 8},
	}})
	if d := inj.Hit("test/alpha", 0); !d.Fire || d.Param != 9 || d.Rule != 0 {
		t.Fatalf("first hit: got %+v, want the prob rule (param 9) to win", d)
	}
	for i := 0; i < 5; i++ {
		if d := inj.Hit("test/alpha", 0); d.Fire {
			t.Fatalf("hit %d fired (param %d): suppressed nth-hit must not defer", i+2, d.Param)
		}
	}
}

// An observed injector lands each fire as one "faults" instant on its
// track, at the hit's instant, in hit order, named by its site and
// carrying its rule and param: the SLO plane's incident attribution
// reads these. An unobserved injector records nothing.
func TestObservedFiresLandOnTheTrace(t *testing.T) {
	plan := Plan{Rules: []Rule{
		{Site: "test/alpha", NthHit: 2, Param: 7},
		{Site: "test/beta", NthHit: 1, Param: 3},
	}}
	tr := telemetry.New()
	inj, unobserved := MustNew(plan), MustNew(plan)
	inj.Observe(tr, "row")
	hits := []struct {
		site string
		at   simclock.Time
	}{{"test/alpha", 10}, {"test/beta", 20}, {"test/alpha", 30}}
	for _, h := range hits {
		if got, want := unobserved.Hit(h.site, h.at), inj.Hit(h.site, h.at); got != want {
			t.Fatalf("unobserved hit at %v decided %+v, observed %+v", h.at, got, want)
		}
	}
	events := tr.EventsSince(0)
	want := []struct {
		site        string
		at          simclock.Time
		rule, param int
	}{{"test/beta", 20, 1, 3}, {"test/alpha", 30, 0, 7}}
	if len(events) != len(want) {
		t.Fatalf("events = %+v, want %d fires", events, len(want))
	}
	for i, w := range want {
		e := events[i]
		args := []telemetry.Arg{telemetry.A("rule", strconv.Itoa(w.rule)), telemetry.A("param", strconv.Itoa(w.param))}
		if e.Cat != "faults" || e.Track != "row" || e.Name != w.site || e.At != w.at ||
			len(e.Args) != 2 || e.Args[0] != args[0] || e.Args[1] != args[1] {
			t.Errorf("fire %d = %+v, want %s at %v with %v on row", i, e, w.site, w.at, args)
		}
	}
}
