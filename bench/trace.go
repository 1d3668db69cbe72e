package main

// Spans are recorded by the benchmark's own code around each call into
// a layer; nothing inside the simulator is instrumented. A traced
// iteration makes exactly the calls an untraced one makes, plus clock
// reads and, for the few spans that count allocations, a
// runtime.ReadMemStats at each end.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// span is one timed call. Spans of one iteration share Iter; Parent is
// the index of the enclosing span in the same slice, -1 for the
// iteration's root span.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Iter   int    `json:"iter"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Allocs int64  `json:"allocs"` // heap objects allocated inside the span; -1 when not counted
}

// rootSpan names the span around a whole iteration; its self time is
// the benchmark's own glue between layer calls.
const rootSpan = "bench.iter"

type tracer struct {
	epoch time.Time
	iter  int
	spans []span
	open  []int    // stack of open span indices
	m0    []uint64 // Mallocs at begin, parallel to open; 0 when not counted
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span nested in the innermost open one. A nil tracer
// records nothing, so untraced code calls the same methods.
func (t *tracer) begin(name string) int { return t.open1(name, false) }

// beginAllocs is begin for a span that also counts its allocations.
func (t *tracer) beginAllocs(name string) int { return t.open1(name, true) }

func (t *tracer) open1(name string, countAllocs bool) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	var m0 uint64
	if countAllocs {
		m0 = mallocs()
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Iter: t.iter, Start: t.now(), Allocs: -1})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	t.m0 = append(t.m0, m0)
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	n := len(t.open)
	if n == 0 || t.open[n-1] != i {
		panic(fmt.Sprintf("bench: span %d closed out of order", i))
	}
	s := &t.spans[i]
	s.End = t.now()
	if m0 := t.m0[n-1]; m0 != 0 {
		s.Allocs = int64(mallocs() - m0)
	}
	t.open, t.m0 = t.open[:n-1], t.m0[:n-1]
}

// endAs renames span i, for calls whose kind is known only afterwards
// (a build-cache hit or miss), then closes it.
func (t *tracer) endAs(i int, name string) {
	if t == nil {
		return
	}
	t.spans[i].Name = name
	t.end(i)
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// selfTimes returns each span's duration minus the time its children
// cover. Spans nest strictly (one goroutine, a stack of open spans), so
// children never overlap and the time they cover is their summed
// duration.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// layerSums aggregates spans by name over the traced iterations of one
// round. Allocs sums only spans that counted them.
type layerSums struct {
	Calls  map[string]int64 `json:"calls"`
	SelfNs map[string]int64 `json:"self_ns"`
	Allocs map[string]int64 `json:"allocs"`
	IterNs int64            `json:"iter_ns"` // summed root-span durations
}

func newLayerSums() *layerSums {
	return &layerSums{Calls: map[string]int64{}, SelfNs: map[string]int64{}, Allocs: map[string]int64{}}
}

func (l *layerSums) addSpans(spans []span) {
	self := selfTimes(spans)
	for i, s := range spans {
		l.Calls[s.Name]++
		l.SelfNs[s.Name] += self[i]
		if s.Allocs >= 0 {
			l.Allocs[s.Name] += s.Allocs
		}
		if s.Parent < 0 {
			l.IterNs += s.End - s.Start
		}
	}
}

func (l *layerSums) merge(o *layerSums) {
	for k, v := range o.Calls {
		l.Calls[k] += v
	}
	for k, v := range o.SelfNs {
		l.SelfNs[k] += v
	}
	for k, v := range o.Allocs {
		l.Allocs[k] += v
	}
	l.IterNs += o.IterNs
}

// writeChromeTrace writes every round's spans as Chrome trace-event
// JSON (load it in Perfetto or chrome://tracing): one process per
// round, timestamps in microseconds since the round's tracer started.
func writeChromeTrace(path string, rounds [][]span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args"`
	}
	events := []event{}
	for r, spans := range rounds {
		for _, s := range spans {
			args := map[string]any{"iter": s.Iter}
			if s.Allocs >= 0 {
				args["allocs"] = s.Allocs
			}
			events = append(events, event{
				Name: s.Name, Ph: "X", Pid: r, Tid: 0,
				Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3, Args: args,
			})
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
