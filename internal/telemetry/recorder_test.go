package telemetry

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"lupine/internal/simclock"
)

func TestRecorderRingEviction(t *testing.T) {
	tr := New()
	for i := 0; i < flightDepth+5; i++ {
		tr.Instant("fleet", "vm0", fmt.Sprintf("e%d", i), simclock.Time(i))
	}
	tr.Trip("vm0", "test", flightDepth+5)
	d := tr.Dumps()[0]
	if len(d.Records) != flightDepth {
		t.Fatalf("dump kept %d records, want %d", len(d.Records), flightDepth)
	}
	// Oldest first, and the five earliest records fell off.
	if first, last := d.Records[0].Name, d.Records[flightDepth-1].Name; first != "e5" || last != fmt.Sprintf("e%d", flightDepth+4) {
		t.Fatalf("dump runs %q..%q, want e5..e%d", first, last, flightDepth+4)
	}
}

func TestRecorderTracksAreIndependent(t *testing.T) {
	tr := New()
	tr.Instant("fleet", "a", "a1", 1)
	tr.Instant("fleet", "b", "b1", 2)
	tr.Trip("a", "x", 3)
	tr.Trip("missing", "x", 3)
	dumps := tr.Dumps()
	if d := dumps[0]; len(d.Records) != 1 || d.Records[0].Name != "a1" {
		t.Fatalf("track a dump: %v", d.Records)
	}
	if d := dumps[1]; len(d.Records) != 0 {
		t.Fatalf("unknown track dumped records: %v", d.Records)
	}
}

// The history survives a trip: a backend that dies twice produces two
// dumps with the history leading to each, the second showing the first
// trip's marker.
func TestRecorderRingSurvivesTrip(t *testing.T) {
	tr := New()
	tr.Instant("vmm", "vm0", "boot", 1)
	tr.Trip("vm0", "panic", 2)
	tr.Instant("vmm", "vm0", "reboot", 3)
	tr.Trip("vm0", "panic", 4)
	dumps := tr.Dumps()
	if len(dumps) != 2 {
		t.Fatalf("retained %d dumps, want 2", len(dumps))
	}
	if d1 := dumps[0]; len(d1.Records) != 1 || d1.Records[0].Name != "boot" {
		t.Fatalf("first dump: %v", d1.Records)
	}
	var names []string
	for _, r := range dumps[1].Records {
		names = append(names, r.Name)
	}
	if want := []string{"boot", "trip:panic", "reboot"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("second dump = %v, want %v", names, want)
	}
}

func TestRecorderDefaultsAndNil(t *testing.T) {
	if d := New().Dumps(); len(d) != 0 {
		t.Fatalf("untripped tracer dumps = %v, want none", d)
	}
	var nt *Tracer
	nt.Trip("t", "x", 0)
	if nt.Dumps() != nil {
		t.Fatal("nil tracer returned dumps")
	}
}

// A span is logged when it closes but dated at its start: the dump
// lists it where it was logged, at its start instant, with its detail.
func TestDumpString(t *testing.T) {
	tr := New()
	tr.Instant("hostmem", "pool/vm1", "pressure", simclock.Time(4*simclock.Microsecond))
	tr.Span("hostmem", "pool/vm1", "rung:balloon", simclock.Time(3*simclock.Microsecond),
		simclock.Time(5*simclock.Microsecond), A("need", "4096"))
	tr.Trip("pool/vm1", "oom-kill", simclock.Time(5*simclock.Microsecond))
	d := tr.Dumps()[0]
	if len(d.Records) != 2 || d.Records[1].Name != "rung:balloon" || d.Records[1].At != simclock.Time(3*simclock.Microsecond) {
		t.Fatalf("records = %+v, want the span last, dated at its start", d.Records)
	}
	s := d.String()
	for _, want := range []string{"oom-kill", "pool/vm1", "last 2 records", "rung:balloon", "cat=hostmem need=4096"} {
		if !strings.Contains(s, want) {
			t.Fatalf("dump rendering missing %q:\n%s", want, s)
		}
	}
}

// ringRecorder is the flight recorder Dumps replaced, kept as the
// reference FuzzDumpsMatchRing holds Dumps to: a bounded ring of recent
// records per track, fed a second copy of every span and instant, and
// snapshotted into a Dump when something dies there.
type ringRecorder struct {
	cap   int
	rings map[string]*ring
	dumps []*Dump
}

func newRingRecorder(capacity int) *ringRecorder {
	return &ringRecorder{cap: capacity, rings: map[string]*ring{}}
}

// Note appends a record to track's ring, evicting the oldest past
// capacity.
func (r *ringRecorder) Note(track string, at simclock.Time, name, detail string) {
	rg, ok := r.rings[track]
	if !ok {
		rg = &ring{buf: make([]Record, r.cap)}
		r.rings[track] = rg
	}
	rg.push(Record{At: at, Name: name, Detail: detail})
}

// Trip snapshots track's ring into a Dump (oldest first) and retains it.
// The ring itself is not cleared.
func (r *ringRecorder) Trip(track, reason string, at simclock.Time) {
	d := &Dump{Track: track, Reason: reason, At: at}
	if rg, ok := r.rings[track]; ok {
		d.Records = rg.snapshot()
	}
	r.dumps = append(r.dumps, d)
}

// ring is a fixed-capacity circular buffer of records.
type ring struct {
	buf  []Record
	next int
	full bool
}

func (rg *ring) push(rec Record) {
	rg.buf[rg.next] = rec
	rg.next++
	if rg.next == len(rg.buf) {
		rg.next = 0
		rg.full = true
	}
}

func (rg *ring) snapshot() []Record {
	if !rg.full {
		return append([]Record(nil), rg.buf[:rg.next]...)
	}
	out := make([]Record, 0, len(rg.buf))
	out = append(out, rg.buf[rg.next:]...)
	return append(out, rg.buf[:rg.next]...)
}

// dumpOp encodes one FuzzDumpsMatchRing step as its first byte: the
// track (a, b or c), the number of args (0-2) and the kind.
func dumpOp(kind, track, nargs int) byte { return byte(track + 3*nargs + 9*kind) }

const (
	opSpan = iota
	opInstant
	opTrip
)

// FuzzDumpsMatchRing runs random span, instant and trip sequences over
// three tracks through a tracer and, the way the tracer used to feed
// it, through the per-track ring, and requires identical dumps. Span
// starts are drawn freely, so a span logged late but dated early must
// still sit where the ring put it.
func FuzzDumpsMatchRing(f *testing.F) {
	seed := func(steps ...[2]byte) []byte {
		var b []byte
		for _, s := range steps {
			b = append(b, s[0], s[1])
		}
		return b
	}
	var over, under, empty, twice [][2]byte
	// A track with more than flightDepth records, beside another track.
	for i := 0; i < flightDepth+8; i++ {
		over = append(over, [2]byte{dumpOp(opInstant, 0, i%3), byte(i)}, [2]byte{dumpOp(opSpan, 1, 1), byte(200 - i)})
	}
	over = append(over, [2]byte{dumpOp(opTrip, 0, 0), 250}, [2]byte{dumpOp(opTrip, 1, 0), 251})
	// A track with fewer.
	for i := 0; i < 5; i++ {
		under = append(under, [2]byte{dumpOp(opSpan, 1, 2), byte(50 - i)})
	}
	under = append(under, [2]byte{dumpOp(opTrip, 1, 0), 60})
	// A trip on a track that has no records.
	empty = append(empty, [2]byte{dumpOp(opInstant, 0, 1), 1}, [2]byte{dumpOp(opTrip, 2, 0), 2})
	// Two trips on one track: the second dump shows the first's marker.
	twice = append(twice, [2]byte{dumpOp(opSpan, 0, 0), 1}, [2]byte{dumpOp(opTrip, 0, 0), 2},
		[2]byte{dumpOp(opInstant, 0, 1), 3}, [2]byte{dumpOp(opTrip, 0, 0), 4})
	for _, s := range [][][2]byte{over, under, empty, twice} {
		f.Add(seed(s...))
	}

	tracks := []string{"a", "b", "c"}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, ref := New(), newRingRecorder(flightDepth)
		for i := 0; i+1 < len(data); i += 2 {
			op, at := int(data[i]), simclock.Time(data[i+1])
			track, name := tracks[op%3], fmt.Sprintf("r%d", i/2)
			args := []Arg{A("k", "v"), A("n", name)}[:op/3%3]
			switch op / 9 % 3 {
			case opSpan:
				tr.Span("fleet", track, name, at, at+7, args...)
				ref.Note(track, at, name, detail("fleet", args))
			case opInstant:
				tr.Instant("faults", track, name, at, args...)
				ref.Note(track, at, name, detail("faults", args))
			case opTrip:
				tr.Trip(track, name, at)
				ref.Trip(track, name, at)
				ref.Note(track, at, "trip:"+name, detail("flight", nil))
			}
		}
		if got, want := tr.Dumps(), ref.dumps; len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("Dumps differ from the ring's:\n got %v\nwant %v", got, want)
		}
	})
}
