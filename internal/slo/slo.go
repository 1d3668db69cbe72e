// Package slo is the deterministic observability plane layered over
// internal/telemetry: rolling-window service-level indicators sampled
// from a metrics registry on the virtual clock, SRE-style multi-window
// multi-burn-rate alerting against declared objectives, and incident
// records that attribute an alert window to the fault storm and plane
// events that caused it.
//
// Everything runs in virtual time. A Scope registers an
// aligned-interval sampler on the experiment's simclock; at every
// boundary it snapshots the cumulative good/bad totals of each
// objective's SLI, evaluates each burn-rate rule over its long and
// short windows, and drives the alert state machine. Same seed, same
// plan ⇒ the same sample grid, the same burn values, the same alert
// and incident timeline, byte for byte — the experiments' trace
// determinism contract extends to the SLO reports.
package slo

import (
	"slices"
	"strconv"
	"strings"

	"lupine/internal/faults"
	"lupine/internal/simclock"
	"lupine/internal/telemetry"
)

// Objective declares one SLO: an SLI (ratio or latency form), a target,
// and the burn-rate rules that watch it.
//
// Ratio form: Good and Bad name registry counters; the SLI over a
// window is goodΔ/(goodΔ+badΔ). Latency form: Hist names a registry
// histogram and samples at most Threshold count as good (the classic
// "fraction of requests faster than X" SLI), windowed by diffing bucket
// snapshots. Exactly one form must be set.
type Objective struct {
	Name string

	Good []string // ratio SLI: counters whose deltas are good events
	Bad  []string // ratio SLI: counters whose deltas are bad events

	Hist      string            // latency SLI: histogram name
	Threshold simclock.Duration // latency SLI: samples <= Threshold are good

	Target float64 // availability target in (0,1), e.g. 0.999
	Rules  []BurnRule
}

// BurnRule is one multi-window burn-rate alert: fire when the error
// budget burn rate over BOTH the long and the short window is at least
// MaxBurn. The long window gives the rule its memory (a sustained
// burn), the short window makes it stop firing promptly once the burn
// ends — the standard SRE fast-burn/slow-burn construction, scaled to
// virtual milliseconds instead of hours.
type BurnRule struct {
	Name    string            // e.g. "fast", "slow"
	Long    simclock.Duration // long window
	Short   simclock.Duration // short window (typically Long/4 .. Long/12)
	MaxBurn float64           // burn-rate threshold, in multiples of the budget rate
}

// DefaultRules builds the standard fast/slow pair scaled so the fast
// rule's long window is `scale`: fast = (scale, scale/4, fastBurn),
// slow = (4*scale, scale, slowBurn). Experiments pick scale around a
// few hundred microseconds to a few milliseconds depending on storm
// length.
func DefaultRules(scale simclock.Duration, fastBurn, slowBurn float64) []BurnRule {
	return []BurnRule{
		{Name: "fast", Long: scale, Short: scale / 4, MaxBurn: fastBurn},
		{Name: "slow", Long: 4 * scale, Short: scale, MaxBurn: slowBurn},
	}
}

// Alert is one firing of one burn rule of the objective that keeps it.
type Alert struct {
	Rule      string
	At        simclock.Time // rising edge: both windows crossed MaxBurn
	ClearedAt simclock.Time // falling edge; -1 = still firing at Finish
	Burn      float64       // long-window burn at the rising edge
	Peak      float64       // worst long-window burn while firing
}

// Cause is one ranked entry in an incident's cause chain: either an
// injected fault firing ("fault", a "faults" instant on the scope's
// track) or a plane event from the trace ("event": breaker trips,
// quarantines, ladder rungs, repaves, blackouts...). Repeats
// aggregate: Count occurrences, LastAt the most recent.
type Cause struct {
	Kind   string // "fault" | "event"
	Name   string // fault site, or trace "<cat>/<name>"
	Count  int
	LastAt simclock.Time
}

// Incident is the attribution record emitted at an alert's rising edge:
// the alert identity plus the ranked cause chain correlated from the
// recent trace window. Fault fires outrank plane events — the storm is
// the root cause, the plane events are its blast radius — and within a
// kind, more recent causes rank first.
type Incident struct {
	Objective string
	Rule      string
	At        simclock.Time
	Causes    []Cause
}

// maxCauses bounds an incident's cause chain after aggregation.
const maxCauses = 8

// objState is one objective's rolling state inside a Scope.
type objState struct {
	o         Objective
	maxBucket int // latency SLIs: largest log2 bucket fully under Threshold

	good []int64 // cumulative good at sample i (time (i+1)*every)
	bad  []int64

	firing []bool // per rule
	fireAt []simclock.Time
	burnAt []float64 // burn at rising edge
	peak   []float64 // worst burn while firing
	worst  []float64 // worst long-window burn ever (per rule)
	fired  []int     // rising edges (per rule)

	alerts    []Alert
	incidents []Incident
}

// Scope samples one track's SLIs on one clock. Create per experiment
// row, Add objectives, Bind to the row's clock (or call Sample from a
// replay loop), run the row, then Finish.
type Scope struct {
	track string
	reg   *telemetry.Registry
	tr    *telemetry.Tracer
	every simclock.Duration

	objs     []*objState
	samples  int
	lastAt   simclock.Time
	finished bool

	// Incident attribution reads the tracer's event log once, from its
	// start: every incident reads what was recorded since the one before
	// and keeps the cause candidates, and candidates older than any later
	// window can reach are dropped. The log is not in time order, so
	// nothing is searched.
	horizon    simclock.Duration // the widest fault window any rule looks back, plus a sample
	eventsRead int               // tracer events read so far
	events     []candidate       // cause-grade plane events on the track, in record order
	fires      []candidate       // fault fires on the track, in hit order
}

// candidate is one cause occurrence kept for the alert windows to come.
type candidate struct {
	name string // fault site, or trace "<cat>/<name>"
	at   simclock.Time
}

// NewScope builds a scope sampling reg every `every` of virtual time.
// tr (optional) receives alert/clear instants on track's "slo" lane and
// is scanned for incident causes; reg must be the registry the row's
// Observe hooks write to.
func NewScope(track string, reg *telemetry.Registry, tr *telemetry.Tracer, every simclock.Duration) *Scope {
	if reg == nil {
		panic("slo: NewScope needs a registry")
	}
	if every <= 0 {
		panic("slo: NewScope needs a positive sample interval")
	}
	return &Scope{track: track, reg: reg, tr: tr, every: every}
}

// SetInjector lands the row's fault injector's fires on the scope's
// track, where incidents rank them as root causes. Call it before the
// injector's first Hit: a scope ranks only what its tracer recorded.
// Nil-safe.
func (s *Scope) SetInjector(inj *faults.Injector) { inj.Observe(s.tr, s.track) }

// Add declares an objective. Call before the run starts.
func (s *Scope) Add(o Objective) {
	if o.Target <= 0 || o.Target >= 1 {
		panic("slo: objective " + o.Name + ": Target must be in (0,1)")
	}
	ratio := len(o.Good) > 0 || len(o.Bad) > 0
	latency := o.Hist != ""
	if ratio == latency {
		panic("slo: objective " + o.Name + ": exactly one of Good/Bad counters or Hist must be set")
	}
	st := &objState{
		o:      o,
		firing: make([]bool, len(o.Rules)),
		fireAt: make([]simclock.Time, len(o.Rules)),
		burnAt: make([]float64, len(o.Rules)),
		peak:   make([]float64, len(o.Rules)),
		worst:  make([]float64, len(o.Rules)),
		fired:  make([]int, len(o.Rules)),
	}
	if latency {
		// Largest bucket i whose upper edge 2^(i+1)-1 fits under the
		// threshold; bucket 0's edge is 1 ns. Stop before the shift
		// overflows — no real threshold reaches 2^62 ns anyway.
		st.maxBucket = -1
		for i := 0; i < 62; i++ {
			edge := int64(1)<<(uint(i)+1) - 1
			if edge > int64(o.Threshold) {
				break
			}
			st.maxBucket = i
		}
	}
	for _, r := range o.Rules {
		s.horizon = max(s.horizon, 2*r.Long+s.every)
	}
	s.objs = append(s.objs, st)
}

// Bind registers the scope's sampler on the clock that drives the run.
// A nil scope (an unscoped row) registers nothing.
func (s *Scope) Bind(clk *simclock.Clock) {
	if s == nil {
		return
	}
	clk.Sample(s.every, s.Sample)
}

// cums reads the objective's cumulative good/bad totals right now.
func (s *Scope) cums(st *objState) (good, bad int64) {
	if st.o.Hist != "" {
		zero, buckets, count := s.reg.Histogram(st.o.Hist).Snapshot()
		good = zero // non-positive durations are trivially under threshold
		for i := 0; i <= st.maxBucket; i++ {
			good += buckets[i]
		}
		return good, count - good
	}
	for _, n := range st.o.Good {
		good += s.reg.Counter(n).Value()
	}
	for _, n := range st.o.Bad {
		bad += s.reg.Counter(n).Value()
	}
	return good, bad
}

// burn computes the error-budget burn rate over the trailing window:
// badΔ/totalΔ divided by the budget rate (1-target). Windows shorter
// than the sample interval use the last sample's delta; windows
// reaching before the run's start clamp to what exists (the implicit
// zero baseline). An empty window — no events at all — burns nothing.
func (st *objState) burn(window, every simclock.Duration) float64 {
	i := len(st.good) - 1
	k := int(window / every)
	if k < 1 {
		k = 1
	}
	var g0, b0 int64
	if j := i - k; j >= 0 {
		g0, b0 = st.good[j], st.bad[j]
	}
	gd, bd := st.good[i]-g0, st.bad[i]-b0
	total := gd + bd
	if total <= 0 {
		return 0
	}
	return (float64(bd) / float64(total)) / (1 - st.o.Target)
}

// Sample takes one aligned reading at virtual time now and advances
// every rule's alert state machine. Bound scopes get this from the
// clock; replay-style consumers (the chaos experiment's supervisor
// timelines) may call it directly on a uniform grid. now increases from
// one call to the next.
func (s *Scope) Sample(now simclock.Time) {
	s.samples++
	s.lastAt = now
	for _, st := range s.objs {
		g, b := s.cums(st)
		st.good = append(st.good, g)
		st.bad = append(st.bad, b)
		for ri := range st.o.Rules {
			r := &st.o.Rules[ri]
			long := st.burn(r.Long, s.every)
			short := st.burn(r.Short, s.every)
			if long > st.worst[ri] {
				st.worst[ri] = long
			}
			firing := long >= r.MaxBurn && short >= r.MaxBurn
			switch {
			case firing && !st.firing[ri]:
				st.firing[ri] = true
				st.fireAt[ri] = now
				st.burnAt[ri] = long
				st.peak[ri] = long
				st.fired[ri]++
				s.event("alert", st, ri, now, long)
				st.incidents = append(st.incidents, s.attribute(st, ri, now, r.Long))
			case firing:
				if long > st.peak[ri] {
					st.peak[ri] = long
				}
			case !firing && st.firing[ri]:
				st.firing[ri] = false
				st.alerts = append(st.alerts, Alert{
					Rule: r.Name, At: st.fireAt[ri], ClearedAt: now,
					Burn: st.burnAt[ri], Peak: st.peak[ri],
				})
				s.event("clear", st, ri, now, long)
			}
		}
	}
}

// event lands an alert edge on the tracer (so a flight dump cut on that
// track shows it), on the scope track's "slo" lane.
func (s *Scope) event(kind string, st *objState, ri int, now simclock.Time, burn float64) {
	if s.tr == nil {
		return
	}
	s.tr.Instant("slo", s.track, kind+":"+st.o.Name+"/"+st.o.Rules[ri].Name, now,
		telemetry.A("burn", strconv.FormatFloat(burn, 'f', 3, 64)),
		telemetry.A("target", strconv.FormatFloat(st.o.Target, 'f', -1, 64)))
}

// onTrack reports whether an event's track belongs to the scope: the
// scope track itself or a sub-lane under it. The boundary matters —
// "breach/lupine+mp" must not absorb "breach/lupine+mp+aslr"'s events.
func onTrack(track, scope string) bool {
	return track == scope || strings.HasPrefix(track, scope+"/")
}

// causeEvent reports whether a trace event is plane-event cause-chain
// material: region-plane, attack-plane and memory-ladder instants
// wholesale, plus the fleet instants that mark damage rather than
// per-request noise.
func causeEvent(e telemetry.Event) bool {
	switch e.Cat {
	case "region", "attack", "hostmem":
		return true
	case "fleet":
		switch e.Name {
		case "oom-kill", "quarantine", "health:down", "drain", "retire", "breaker:open", "breaker:false-trip":
			return true
		}
	}
	return false
}

// attribute builds the incident for a rising edge: every cause-grade
// plane event inside the alert's long window (plus one sample of
// grace) and every fault firing inside twice that window — faults act
// upstream of the SLI through queues and reclaim ladders, so the burn
// they cause can outlive the firing itself by a window. Causes are
// aggregated by name, fault fires first, then most recent first,
// capped at maxCauses.
func (s *Scope) attribute(st *objState, ri int, now simclock.Time, long simclock.Duration) Incident {
	s.read()
	from := max(0, now.Add(-(long + s.every)))
	faultFrom := max(0, now.Add(-(2*long + s.every)))
	causes := rank(nil, "fault", s.fires, faultFrom, now)
	causes = rank(causes, "event", s.events, from, now)
	if len(causes) > maxCauses {
		causes = causes[:maxCauses]
	}
	// Sample times only grow, so a candidate before every window a later
	// incident can open never ranks again.
	cut := now.Add(-s.horizon)
	stale := func(c candidate) bool { return c.at < cut }
	s.fires = slices.DeleteFunc(s.fires, stale)
	s.events = slices.DeleteFunc(s.events, stale)
	return Incident{Objective: st.o.Name, Rule: st.o.Rules[ri].Name, At: now, Causes: causes}
}

// read takes in what the tracer recorded since the last incident: the
// fault fires on the scope's own track (a sub-lane's fires belong to
// another injector, such as a pool member's boot storm), and the
// cause-grade plane events on the track or its sub-lanes.
func (s *Scope) read() {
	events := s.tr.EventsSince(s.eventsRead)
	s.eventsRead += len(events)
	for _, e := range events {
		switch {
		case e.Cat == "faults":
			if e.Track == s.track {
				s.fires = append(s.fires, candidate{name: e.Name, at: e.At})
			}
		case causeEvent(e) && onTrack(e.Track, s.track):
			s.events = append(s.events, candidate{name: e.Cat + "/" + e.Name, at: e.At})
		}
	}
}

// rank appends to dst the candidates inside [from, now], aggregated by
// name in first-seen order, with the most recent last occurrence first;
// first-seen order breaks ties.
func rank(dst []Cause, kind string, cands []candidate, from, now simclock.Time) []Cause {
	base := len(dst)
next:
	for _, c := range cands {
		if c.at < from || c.at > now {
			continue
		}
		for i := base; i < len(dst); i++ {
			if dst[i].Name == c.name {
				dst[i].Count++
				dst[i].LastAt = max(dst[i].LastAt, c.at)
				continue next
			}
		}
		dst = append(dst, Cause{Kind: kind, Name: c.name, Count: 1, LastAt: c.at})
	}
	for i := base + 1; i < len(dst); i++ {
		for j := i; j > base && dst[j].LastAt > dst[j-1].LastAt; j-- {
			dst[j], dst[j-1] = dst[j-1], dst[j]
		}
	}
	return dst
}

// Finish closes the books at virtual time end: rules still firing
// become open alerts (ClearedAt -1). Safe to call once; the scope keeps
// answering Report afterwards. A nil scope has nothing to close.
func (s *Scope) Finish(end simclock.Time) {
	if s == nil || s.finished {
		return
	}
	s.finished = true
	if end > s.lastAt {
		s.lastAt = end
	}
	for _, st := range s.objs {
		for ri, r := range st.o.Rules {
			if !st.firing[ri] {
				continue
			}
			st.firing[ri] = false
			st.alerts = append(st.alerts, Alert{
				Rule: r.Name, At: st.fireAt[ri], ClearedAt: -1,
				Burn: st.burnAt[ri], Peak: st.peak[ri],
			})
		}
	}
}

// Alerts returns every closed-out alert in fire order (Finish first for
// rules still firing at the end).
func (s *Scope) Alerts() []Alert {
	var out []Alert
	for _, st := range s.objs {
		out = append(out, st.alerts...)
	}
	// Fire order across objectives.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].At < out[j-1].At; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Incidents returns every incident in fire order.
func (s *Scope) Incidents() []Incident {
	var out []Incident
	for _, st := range s.objs {
		out = append(out, st.incidents...)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].At < out[j-1].At; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
