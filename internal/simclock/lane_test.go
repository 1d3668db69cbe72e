package simclock

import (
	"slices"
	"testing"
)

// laneScript is one FuzzLaneMatchesPost run: plain events posted up
// front that post timers into lanes, make timers moot and post plain
// markers, over a sampler. With lanes nil every timer is posted with
// Post and a moot one fires as a no-op, as timers did before lanes.
type laneScript struct {
	e             *Engine
	lanes         []*Lane
	delay, jitter []Duration // per lane
	timers        []*scriptTimer
	log           []scriptFire
}

// scriptFire is one logged live fire: a timer's id (>= 0), a plain
// event's -2-op, a marker's 1000+op, or -1 for a sample.
type scriptFire struct {
	at Time
	id int
}

// scriptTimer is one timer of a script. Fired live, it logs itself,
// makes the next timer moot if it cancels, and while it has chain left
// posts itself again into the next lane, like a retransmit.
type scriptTimer struct {
	s             *laneScript
	id, lane, jit int
	chain         int
	cancels, moot bool
}

func (t *scriptTimer) Moot() bool { return t.moot }

func (t *scriptTimer) Fire(now Time) {
	if t.moot {
		return
	}
	s := t.s
	s.log = append(s.log, scriptFire{now, t.id})
	if t.cancels && t.id+1 < len(s.timers) {
		s.timers[t.id+1].moot = true
	}
	if t.chain > 0 {
		t.chain--
		t.lane = (t.lane + 1) % len(s.delay)
		t.jit = t.jit*5 + 3
		s.post(t)
	}
}

// post queues t its lane's delay plus jitter from now.
func (s *laneScript) post(t *scriptTimer) {
	at := s.e.Now().Add(s.delay[t.lane] + Duration(t.jit)%s.jitter[t.lane])
	if s.lanes == nil {
		s.e.Post(at, t)
		return
	}
	s.lanes[t.lane].Post(at, t)
}

// runLaneScript decodes data and runs it, through lanes or with Post,
// reporting the log of live fires and samples, Run's count and the
// final clock. data is [lanes, sample interval (0: none), then a delay
// and a jitter bound per lane], then ops of four bytes [kind, instant,
// x, y], each a plain event at the instant:
//
//	0: post a new timer into lane x, jitter y, chaining (y>>4)&3 times
//	1: the same, and the timer makes the next timer moot when it fires
//	2: make timer x moot
//	3: post a plain marker x%64 later
func runLaneScript(data []byte, lanes bool) ([]scriptFire, int, Time) {
	s := &laneScript{e: NewEngine()}
	if len(data) < 2 {
		return nil, s.e.Run(), s.e.Now()
	}
	nl, every := 1+int(data[0]%3), Duration(data[1])
	data = data[2:]
	for k := 0; k < nl; k++ {
		var d, j byte
		if len(data) >= 2 {
			d, j, data = data[0], data[1], data[2:]
		}
		s.delay = append(s.delay, 1+Duration(d%64))
		s.jitter = append(s.jitter, 1+Duration(j%16))
		if lanes {
			s.lanes = append(s.lanes, s.e.Lane())
		}
	}
	if every > 0 {
		s.e.Clock().Sample(every, func(now Time) { s.log = append(s.log, scriptFire{now, -1}) })
	}
	type op struct{ kind, at, x, y byte }
	var ops []op
	for ; len(data) >= 4 && len(ops) < 64; data = data[4:] {
		o := op{data[0] % 4, data[1], data[2], data[3]}
		ops = append(ops, o)
		if o.kind < 2 {
			s.timers = append(s.timers, &scriptTimer{s: s, id: len(s.timers),
				lane: int(o.x) % nl, jit: int(o.y), chain: int(o.y>>4) & 3, cancels: o.kind == 1})
		}
	}
	posted := 0
	for i, o := range ops {
		var act func(now Time)
		switch o.kind {
		case 0, 1:
			t := s.timers[posted]
			posted++
			act = func(Time) { s.post(t) }
		case 2:
			act = func(Time) {
				if len(s.timers) > 0 {
					s.timers[int(o.x)%len(s.timers)].moot = true
				}
			}
		case 3:
			act = func(now Time) {
				s.e.Schedule(now.Add(Duration(o.x%64)), func(now Time) { s.log = append(s.log, scriptFire{now, 1000 + i}) })
			}
		}
		s.e.Schedule(Time(o.at), func(now Time) {
			s.log = append(s.log, scriptFire{now, -2 - i})
			act(now)
		})
	}
	n := s.e.Run()
	return s.log, n, s.e.Now()
}

// Timers posted through lanes fire live, and samples run, at the same
// instants and in the same order as the same timers posted with Post,
// where a moot one pops as a no-op; Run reports the same count and the
// clock ends at the same instant.
func FuzzLaneMatchesPost(f *testing.F) {
	for _, seed := range [][]byte{
		// A timer due before its lane's head (11 < 25) goes to the heap.
		{0, 0, 9, 15, 0, 0, 0, 15, 0, 1, 0, 0},
		// A timer due at 15 inserted between the head at 10 and one at 26.
		{0, 0, 9, 15, 0, 0, 0, 0, 0, 1, 0, 15, 0, 2, 0, 3},
		// Two timers due at 16, behind the head: the earlier post first.
		{0, 0, 9, 15, 0, 0, 0, 0, 0, 1, 0, 5, 0, 6, 0, 0},
		// A head that posts itself again into its own, now empty, lane.
		{0, 0, 9, 0, 0, 0, 0, 0x10},
		// A post at 12 slides the lane down over the head fired at 10.
		{0, 0, 9, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 12, 0, 0},
		// A lane emptied at 11 and refilled at 100.
		{0, 0, 9, 3, 0, 0, 0, 1, 0, 100, 0, 2},
		// The boundary at 50 is crossed only by a timer due at 55 that
		// went moot at 26 and is dropped when the head fires at 30.
		{0, 50, 29, 0, 0, 0, 0, 0, 0, 25, 0, 0, 2, 26, 1, 0, 2, 120, 0, 0},
		// The last two timers are dropped: the run ends at 36, past a
		// boundary at 33.
		{0, 33, 29, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 6, 0, 0, 2, 10, 1, 0, 2, 10, 2, 0},
		// Every timer moot, one of them before it is posted.
		{1, 7, 9, 5, 19, 3, 0, 0, 0, 4, 0, 0, 1, 2, 0, 3, 0, 3, 2, 0, 0, 0, 2, 0, 1, 0, 2, 0, 2, 0},
		// Chains across two lanes, a head made moot while queued, and
		// markers tying with timers.
		{1, 16, 9, 5, 19, 3, 1, 0, 0, 0x35, 0, 2, 1, 0x12, 0, 4, 0, 1, 3, 10, 0, 0, 3, 0, 10, 0, 2, 12, 2, 0},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		wantLog, wantN, wantEnd := runLaneScript(data, false)
		gotLog, gotN, gotEnd := runLaneScript(data, true)
		if !slices.Equal(gotLog, wantLog) || gotN != wantN || gotEnd != wantEnd {
			t.Fatalf("through lanes: %d events ending at %v, log %v\nwith Post: %d events ending at %v, log %v",
				gotN, gotEnd, gotLog, wantN, wantEnd, wantLog)
		}
	})
}
