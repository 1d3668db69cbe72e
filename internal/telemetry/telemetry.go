// Package telemetry is the virtual-time observability plane: a span
// tracer exportable as Chrome trace-event JSON, a registry of cheap
// concurrent-safe counters and histograms, and flight dumps cut from the
// trace where something crashed.
//
// Every timestamp is a simclock.Time — the plane observes *virtual*
// time, so traces and metrics are bit-for-bit deterministic for a fixed
// seed. All entry points are nil-receiver safe: a disabled plane is a
// nil *Tracer / *Registry and every call is a cheap no-op. Hot paths
// that would otherwise allocate argument slices must still guard with
// `if tr != nil` before building args; the convention keeps the
// disabled path at zero allocations (pinned by tests).
package telemetry

import (
	"sync"

	"lupine/internal/simclock"
)

// Arg is one key=value annotation on a span or event.
type Arg struct {
	Key string
	Val string
}

// A builds an Arg; it keeps call sites short.
func A(key, val string) Arg { return Arg{Key: key, Val: val} }

// Span is a closed interval of virtual time on a track.
type Span struct {
	Cat   string // subsystem category: boot, vmm, fleet, snapshot, hostmem, faults
	Track string // display lane, e.g. "lupine/vm0"
	Name  string
	Start simclock.Time
	End   simclock.Time
	Args  []Arg
}

// Event is an instant on a track.
type Event struct {
	Cat   string
	Track string
	Name  string
	At    simclock.Time
	Args  []Arg
}

// Tracer records spans and instant events. A nil Tracer is the disabled
// plane; every method no-ops.
type Tracer struct {
	mu     sync.Mutex
	spans  []Span
	events []Event
	// isSpan says, record by record, which log each record went to. A
	// span is logged when it closes but dated at its start, so the two
	// logs' timestamps cannot recover the order Dumps reads them in.
	isSpan []bool
	trips  []trip
}

// New returns an enabled tracer.
func New() *Tracer { return &Tracer{} }

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// Span records a closed [start, end) span.
func (t *Tracer) Span(cat, track, name string, start, end simclock.Time, args ...Arg) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Cat: cat, Track: track, Name: name, Start: start, End: end, Args: args})
	t.isSpan = append(t.isSpan, true)
	t.mu.Unlock()
}

// Instant records a point event.
func (t *Tracer) Instant(cat, track, name string, at simclock.Time, args ...Arg) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, Event{Cat: cat, Track: track, Name: name, At: at, Args: args})
	t.isSpan = append(t.isSpan, false)
	t.mu.Unlock()
}

// Trip marks a crash post-mortem on track: Dumps cuts the track's
// history as it stands now. The moment itself is a "flight" instant on
// the track, so a later trip there shows this one.
func (t *Tracer) Trip(track, reason string, at simclock.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.trips = append(t.trips, trip{track: track, reason: reason, at: at, spans: len(t.spans), events: len(t.events)})
	t.mu.Unlock()
	t.Instant("flight", track, "trip:"+reason, at)
}

// Spans returns a copy of all recorded spans in record order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// EventsSince returns the instant events recorded from index i on, in
// record order: a reader that keeps i plus the length it got reads each
// event once. The slice is a view of the log, which only ever grows;
// the caller must not modify it.
func (t *Tracer) EventsSince(i int) []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events[i:len(t.events):len(t.events)]
}
