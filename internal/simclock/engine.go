package simclock

import "fmt"

// Engine is the deterministic discrete-event loop every simulated plane
// runs on: one Clock plus one queue of pending events. Events pop in
// (at, seq) order — time first, then the order they were scheduled — so
// a run replays bit-for-bit from its inputs. The engine owns the clock
// and moves it with AdvanceTo, so Sample boundaries crossed between two
// events fire before the later event runs.
//
// The queue is a binary min-heap of value-type events, written out here
// rather than through container/heap so no event costs an allocation of
// its own. Like Clock, an Engine is not safe for concurrent use.
type Engine struct {
	clk *Clock
	q   []event
	seq uint64
}

// Handler is what an event does when it fires. A plane's hot-path
// events (a segment's delivery, a retransmit timer, a response
// deadline) are long-lived values that implement Handler themselves, so
// posting one allocates nothing; each handler type is one kind of event.
type Handler interface {
	Fire(now Time)
}

// Func adapts a plain function to Handler. A func value is
// pointer-shaped, so the conversion allocates nothing beyond the
// closure itself.
type Func func(now Time)

// Fire calls f.
func (f Func) Fire(now Time) { f(now) }

// event is one scheduled state change.
type event struct {
	at  Time
	seq uint64
	h   Handler
}

// before is the queue order: earlier instant first, schedule order
// breaking ties.
func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// NewEngine returns an empty engine on a fresh clock at time zero.
func NewEngine() *Engine { return &Engine{clk: New()} }

// Clock exposes the engine's clock, for observers that register Sample
// callbacks and for code that prices work against the current instant.
func (e *Engine) Clock() *Clock { return e.clk }

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.clk.now }

// Schedule enqueues fn to run at instant at; it is Post with a Func.
func (e *Engine) Schedule(at Time, fn func(now Time)) { e.Post(at, Func(fn)) }

// Post enqueues h to fire at instant at. An instant in the past is moved
// up to now: the event fires next among those due now, after every
// event already posted for now.
func (e *Engine) Post(at Time, h Handler) {
	if at < e.clk.now {
		at = e.clk.now
	}
	e.seq++
	e.push(event{at: at, seq: e.seq, h: h})
}

// Reserve sets aside the next n sequence numbers and returns the first
// of them. An event posted later with PostSeq under one of them orders
// among same-instant events as if it had been posted now.
func (e *Engine) Reserve(n int) uint64 {
	first := e.seq + 1
	e.seq += uint64(n)
	return first
}

// PostSeq enqueues h to fire at instant at under seq, a number Reserve
// set aside; each reserved number is posted at most once. Unlike Post,
// an instant in the past panics: moving it up to now would let the
// event pop after events it was reserved to precede.
func (e *Engine) PostSeq(at Time, seq uint64, h Handler) {
	if at < e.clk.now {
		panic(fmt.Sprintf("simclock: PostSeq at %v, before now %v", at, e.clk.now))
	}
	e.push(event{at: at, seq: seq, h: h})
}

// Arrivals queues a process of n arrivals as one source: arrival i fires
// at at(i) and runs fire(i, now). Arrival i+1 is posted only when
// arrival i fires, under the sequence number it would have had if all n
// had been posted now, so the queue holds one arrival at a time and ties
// with other events break as if every arrival were queued up front. at
// is called once per arrival, in index order; at(i+1) must not precede
// at(i), or PostSeq panics.
func (e *Engine) Arrivals(n int, at func(i int) Time, fire func(i int, now Time)) {
	if n <= 0 {
		return
	}
	src := &arrivals{e: e, n: n, first: e.Reserve(n), at: at, fire: fire}
	e.PostSeq(at(0), src.first, src)
}

// arrivals is the source Arrivals queues, once per arrival.
type arrivals struct {
	e     *Engine
	n, i  int    // arrivals in all; the one firing next
	first uint64 // arrival 0's reserved sequence number
	at    func(i int) Time
	fire  func(i int, now Time)
}

// Fire queues the next arrival, then runs this one.
func (a *arrivals) Fire(now Time) {
	i := a.i
	a.i++
	if a.i < a.n {
		a.e.PostSeq(a.at(a.i), a.first+uint64(a.i), a)
	}
	a.fire(i, now)
}

// push sifts ev up from the end of the heap.
func (e *Engine) push(ev event) {
	e.q = append(e.q, ev)
	i := len(e.q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&e.q[parent]) {
			break
		}
		e.q[i] = e.q[parent]
		i = parent
	}
	e.q[i] = ev
}

// Run pops and executes events until the queue is empty, and reports how
// many it ran.
func (e *Engine) Run() int {
	n := 0
	for len(e.q) > 0 {
		e.step()
		n++
	}
	return n
}

// RunUntil executes every event due at or before horizon, leaves later
// ones queued, and leaves the clock at horizon (or where it was, if
// already past). It reports how many events ran. Owners whose loops
// reschedule themselves forever drive the engine this way.
func (e *Engine) RunUntil(horizon Time) int {
	n := 0
	for len(e.q) > 0 && e.q[0].at <= horizon {
		e.step()
		n++
	}
	if horizon > e.clk.now {
		e.clk.AdvanceTo(horizon)
	}
	return n
}

// step pops the earliest event, moves the clock to it and fires it.
func (e *Engine) step() {
	ev := e.pop()
	e.clk.AdvanceTo(ev.at)
	ev.h.Fire(ev.at)
}

// pop removes and returns the earliest event, sifting the last event
// down from the root into the hole it leaves.
func (e *Engine) pop() event {
	q := e.q
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // drop the handler so the collector can reclaim it
	q = q[:n]
	e.q = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = last
	return top
}
