package telemetry

import (
	"fmt"
	"slices"
	"strings"

	"lupine/internal/simclock"
)

// flightDepth is how many of a track's latest records a dump holds.
const flightDepth = 32

// Record is one flight-dump entry: a span (dated at its start) or an
// instant on the dumped track.
type Record struct {
	At     simclock.Time
	Name   string
	Detail string
}

// Dump is a post-mortem snapshot of a track's recent history, oldest
// record first.
type Dump struct {
	Track   string
	Reason  string
	At      simclock.Time
	Records []Record
}

// String renders the dump for operator consumption.
func (d *Dump) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "flight recorder: %s at %v (%s), last %d records:\n",
		d.Reason, d.At, d.Track, len(d.Records))
	for _, r := range d.Records {
		fmt.Fprintf(&sb, "  %-14v %-24s %s\n", r.At, r.Name, r.Detail)
	}
	return sb.String()
}

// trip is one Trip call: where, why and when, and how long the span and
// event logs were at that moment.
type trip struct {
	track, reason string
	at            simclock.Time
	spans, events int
}

// Dumps cuts one Dump per Trip, in trip order. Each holds the last
// flightDepth spans and instants recorded on its track before the trip,
// in record order. The trace is the only copy: a dump is read back from
// the logs, walking them backwards from their lengths at the trip.
func (t *Tracer) Dumps() []*Dump {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	dumps := make([]*Dump, len(t.trips))
	for i, tp := range t.trips {
		d := &Dump{Track: tp.track, Reason: tp.reason, At: tp.at}
		s, e := tp.spans, tp.events
		for k := s + e - 1; k >= 0 && len(d.Records) < flightDepth; k-- {
			if t.isSpan[k] {
				s--
				if sp := &t.spans[s]; sp.Track == tp.track {
					d.Records = append(d.Records, Record{At: sp.Start, Name: sp.Name, Detail: detail(sp.Cat, sp.Args)})
				}
			} else {
				e--
				if ev := &t.events[e]; ev.Track == tp.track {
					d.Records = append(d.Records, Record{At: ev.At, Name: ev.Name, Detail: detail(ev.Cat, ev.Args)})
				}
			}
		}
		slices.Reverse(d.Records)
		dumps[i] = d
	}
	return dumps
}

// detail renders a flight-record detail line: "cat=<cat> k=v ...".
func detail(cat string, args []Arg) string {
	if len(args) == 0 {
		return "cat=" + cat
	}
	var sb strings.Builder
	sb.WriteString("cat=")
	sb.WriteString(cat)
	for _, a := range args {
		sb.WriteByte(' ')
		sb.WriteString(a.Key)
		sb.WriteByte('=')
		sb.WriteString(a.Val)
	}
	return sb.String()
}
