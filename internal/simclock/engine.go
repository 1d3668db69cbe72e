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
// its own. Timers that are mostly cancelled before they expire wait in
// lanes (see Lane) instead, with only each lane's earliest in the heap.
// Like Clock, an Engine is not safe for concurrent use.
type Engine struct {
	clk *Clock
	q   []event
	seq uint64

	// Moot timers lanes dropped without queueing, and the latest instant
	// one of them was due: each would have popped as a no-op, so Run
	// counts them and ends the clock no earlier than that instant.
	drops    int
	lastDrop Time
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

// Timer is a handler that can become moot: Moot reports true exactly
// when Fire would do nothing, and once true it stays true. A timeout
// that is mostly cancelled before it expires (a retransmit timer whose
// segment was acked, a deadline whose response landed) is a Timer, so a
// lane can drop it instead of popping it.
type Timer interface {
	Handler
	Moot() bool
}

// Lane is a queue of timers that come due nearly in the order they are
// posted, like timeouts of one fixed delay plus bounded jitter. It keeps
// them sorted by (at, seq), and only its head waits in the engine's
// heap, under its own instant and sequence number, so every timer fires
// in the order plain Posts would fire it. When the head fires, the lane
// drops the moot timers behind it, each of which would have popped as a
// no-op; the engine's Run counts them and moves the clock past them, so
// a run reads the same either way.
type Lane struct {
	e    *Engine
	q    []laneTimer // sorted by (at, seq); q[head] is queued in the heap
	head int
}

// laneTimer is one timer waiting in a lane.
type laneTimer struct {
	at  Time
	seq uint64
	t   Timer
}

// Lane returns an empty lane that queues its timers on e.
func (e *Engine) Lane() *Lane { return &Lane{e: e} }

// Post enqueues t to fire at instant at, under the next sequence number,
// exactly as the engine's Post would. A timer due before the lane's head
// goes straight to the heap, since only the head may wait there;
// otherwise it is inserted from the tail, which is where a lane's
// timers nearly always belong.
func (l *Lane) Post(at Time, t Timer) {
	e := l.e
	if at < e.clk.now {
		at = e.clk.now
	}
	e.seq++
	if l.head == len(l.q) {
		l.q, l.head = append(l.q[:0], laneTimer{at, e.seq, t}), 0
		e.push(event{at: at, seq: e.seq, h: l})
		return
	}
	if at < l.q[l.head].at {
		e.push(event{at: at, seq: e.seq, h: t})
		return
	}
	if l.head > 0 && len(l.q) == cap(l.q) {
		// Slide the pending timers down over fired ones before the
		// array would have to grow.
		n := copy(l.q, l.q[l.head:])
		clear(l.q[n:])
		l.q, l.head = l.q[:n], 0
	}
	// Every timer in the lane holds an earlier sequence number, so the
	// new one goes behind all those due at or before it.
	l.q = append(l.q, laneTimer{})
	i := len(l.q) - 1
	for l.q[i-1].at > at {
		l.q[i] = l.q[i-1]
		i--
	}
	l.q[i] = laneTimer{at, e.seq, t}
}

// Fire runs the lane's head: it takes the head, drops the moot timers
// behind it, queues the next live one under its own (at, seq), and only
// then fires the head, so a timer the head posts into this lane finds
// it consistent. A head that went moot while queued fires as a no-op.
func (l *Lane) Fire(now Time) {
	e := l.e
	head := l.q[l.head].t
	l.q[l.head] = laneTimer{}
	for l.head++; l.head < len(l.q); l.head++ {
		next := &l.q[l.head]
		if !next.t.Moot() {
			e.push(event{at: next.at, seq: next.seq, h: l})
			break
		}
		e.drops++
		e.lastDrop = max(e.lastDrop, next.at)
		*next = laneTimer{}
	}
	head.Fire(now)
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
// many it ran, counting each moot timer a lane dropped during the call
// as the no-op it would have been. The clock ends at the latest instant
// among the events it ran and the timers dropped, as if every dropped
// timer had popped.
func (e *Engine) Run() int {
	n, drops := 0, e.drops
	for len(e.q) > 0 {
		e.step()
		n++
	}
	if e.lastDrop > e.clk.now {
		e.clk.AdvanceTo(e.lastDrop)
	}
	return n + e.drops - drops
}

// RunUntil executes every event due at or before horizon, leaves later
// ones queued, and leaves the clock at horizon (or where it was, if
// already past). It reports how many events ran, plus the moot timers
// lanes dropped during the call, whatever instant each was due. Owners
// whose loops reschedule themselves forever drive the engine this way.
func (e *Engine) RunUntil(horizon Time) int {
	n, drops := 0, e.drops
	for len(e.q) > 0 && e.q[0].at <= horizon {
		e.step()
		n++
	}
	if horizon > e.clk.now {
		e.clk.AdvanceTo(horizon)
	}
	return n + e.drops - drops
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
