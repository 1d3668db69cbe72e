package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"lupine/internal/simclock"
)

const us = simclock.Microsecond

// buildTrace records a fixed little scenario; calling it twice must
// produce byte-identical exports.
func buildTrace() *Tracer {
	tr := New()
	tr.Span("boot", "pool/vm0", "boot", 0, simclock.Time(120*us), A("total", Dur(120*us)))
	tr.Span("fleet", "pool/vm0", "dispatch", simclock.Time(200*us), simclock.Time(450*us), A("req", "7"))
	tr.Instant("hostmem", "pool", "pressure->some", simclock.Time(300*us))
	tr.Instant("faults", "pool/vm1", "guest/page-alloc", simclock.Time(310*us), A("rule", "3"))
	tr.Span("snapshot", "pool/vm1", "restore", simclock.Time(320*us), simclock.Time(330*us))
	tr.Trip("pool/vm0", "kernel-panic", simclock.Time(500*us))
	return tr
}

func TestChromeTraceDeterministic(t *testing.T) {
	a := buildTrace().ChromeTrace()
	b := buildTrace().ChromeTrace()
	if !bytes.Equal(a, b) {
		t.Fatalf("identical scenarios produced different exports:\n%s\n--\n%s", a, b)
	}
	if !json.Valid(a) {
		t.Fatalf("export is not valid JSON: %s", a)
	}
}

func TestChromeTraceShape(t *testing.T) {
	raw := buildTrace().ChromeTrace()
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string          `json:"ph"`
			Pid  int             `json:"pid"`
			Tid  int             `json:"tid"`
			TS   float64         `json:"ts"`
			Dur  float64         `json:"dur"`
			Cat  string          `json:"cat"`
			Name string          `json:"name"`
			S    string          `json:"s"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var meta, spans, instants int
	tids := map[int]bool{}
	for _, e := range doc.TraceEvents {
		if e.Pid != 1 {
			t.Fatalf("event %q: pid = %d, want 1", e.Name, e.Pid)
		}
		tids[e.Tid] = true
		switch e.Ph {
		case "M":
			meta++
		case "X":
			spans++
		case "i":
			instants++
			if e.S != "t" {
				t.Fatalf("instant %q: scope %q, want t", e.Name, e.S)
			}
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	// Three tracks (pool/vm0, pool, pool/vm1), three spans, two instants
	// plus the flight-trip marker.
	if meta != 3 || spans != 3 || instants != 3 {
		t.Fatalf("meta/spans/instants = %d/%d/%d, want 3/3/3", meta, spans, instants)
	}
	if len(tids) != 3 {
		t.Fatalf("distinct tids = %d, want 3", len(tids))
	}
	// ts/dur land in microseconds: the boot span is 120 µs long at t=0.
	found := false
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && e.Name == "boot" {
			found = true
			if e.TS != 0 || e.Dur != 120 {
				t.Fatalf("boot span ts/dur = %v/%v, want 0/120", e.TS, e.Dur)
			}
		}
	}
	if !found {
		t.Fatal("boot span missing from export")
	}
}

func TestUsecRendering(t *testing.T) {
	cases := []struct {
		ns   int64
		want string
	}{
		{0, "0.000"},
		{1, "0.001"},
		{999, "0.999"},
		{1000, "1.000"},
		{123456789, "123456.789"},
		{-1500, "-1.500"},
	}
	for _, c := range cases {
		if got := usec(c.ns); got != c.want {
			t.Errorf("usec(%d) = %q, want %q", c.ns, got, c.want)
		}
	}
}

func TestNilTracerSafeAndSilent(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.Span("boot", "x", "y", 0, 1)
	tr.Instant("boot", "x", "y", 0)
	tr.Trip("x", "r", 0)
	if tr.Spans() != nil || tr.EventsSince(0) != nil || tr.Dumps() != nil {
		t.Fatal("nil tracer returned recorded state")
	}
	if got := string(tr.ChromeTrace()); got != `{"traceEvents":[]}` {
		t.Fatalf("nil ChromeTrace = %s", got)
	}
}

// TestDisabledTracerZeroAlloc pins the disabled-plane contract: calls on
// a nil tracer must not allocate. (Call sites additionally guard arg
// construction with `if tr != nil`; this pins the receiver side.)
func TestDisabledTracerZeroAlloc(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Span("fleet", "t", "dispatch", 0, 1)
		tr.Instant("fleet", "t", "shed", 0)
	})
	if allocs != 0 {
		t.Fatalf("nil tracer allocated %.1f per op", allocs)
	}
}

func TestTripFeedsFlightAndTrace(t *testing.T) {
	tr := New()
	tr.Instant("fleet", "vm0", "oom-kill", simclock.Time(5*us))
	tr.Trip("vm0", "oom-kill", simclock.Time(5*us))
	dumps := tr.Dumps()
	if len(dumps) != 1 {
		t.Fatalf("tracer cut %d dumps, want 1", len(dumps))
	}
	if d := dumps[0]; len(d.Records) != 1 || d.Records[0].Name != "oom-kill" {
		t.Fatalf("dump = %+v", d)
	} else if !strings.Contains(d.String(), "oom-kill") {
		t.Fatalf("dump render: %s", d)
	}
	evs := tr.EventsSince(0)
	last := evs[len(evs)-1]
	if last.Cat != "flight" || last.Name != "trip:oom-kill" {
		t.Fatalf("trip marker = %+v", last)
	}
}

// A reader that keeps its place reads each event once, and the view it
// gets cannot be appended into the log.
func TestEventsSinceReadsEachEventOnce(t *testing.T) {
	tr := New()
	tr.Instant("fleet", "a", "one", 1)
	tr.Instant("fleet", "a", "two", 2)
	first := tr.EventsSince(0)
	if len(first) != 2 || first[0].Name != "one" || first[1].Name != "two" {
		t.Fatalf("EventsSince(0) = %+v", first)
	}
	tr.Instant("fleet", "a", "three", 3)
	next := tr.EventsSince(len(first))
	if len(next) != 1 || next[0].Name != "three" {
		t.Fatalf("EventsSince(2) = %+v, want only the third event", next)
	}
	_ = append(first, Event{Name: "scribble"})
	if got := tr.EventsSince(2); got[0].Name != "three" {
		t.Fatalf("appending to a view overwrote the log: %+v", got)
	}
}
