package guest

import (
	"container/heap"
	"fmt"
	"sort"

	"lupine/internal/simclock"
)

// cpu models one virtual CPU: a private clock plus the identity of the
// last entity that ran, for context-switch accounting.
type cpu struct {
	now  simclock.Time
	last *Proc
}

// waitQueue is the kernel's blocking primitive. Every blocking resource
// (pipe, socket, futex, child-exit, poll) holds one by value, and its
// backing array is reused across waits; a sleep waits on its timer alone.
type waitQueue struct {
	name  string
	procs []*Proc
}

func (wq *waitQueue) enqueue(p *Proc) { wq.procs = append(wq.procs, p) }

func (wq *waitQueue) remove(p *Proc) {
	for i, q := range wq.procs {
		if q == p {
			wq.procs = append(wq.procs[:i], wq.procs[i+1:]...)
			return
		}
	}
}

// empty reports whether no process waits on the queue.
func (wq *waitQueue) empty() bool { return len(wq.procs) == 0 }

// wake makes up to n waiters runnable at time t (FIFO), returning how
// many were woken. The rest move to the front, so the queue keeps its
// capacity for the next wait.
func (wq *waitQueue) wake(k *Kernel, n int, t simclock.Time) int {
	n = min(n, len(wq.procs))
	for _, p := range wq.procs[:n] {
		k.makeRunnable(p, t)
		k.stats.Wakeups++
	}
	wq.procs = wq.procs[:copy(wq.procs, wq.procs[n:])]
	return n
}

func (wq *waitQueue) wakeAll(k *Kernel, t simclock.Time) int {
	return wq.wake(k, len(wq.procs), t)
}

// timer entries wake a process at an absolute virtual time.
type timerEntry struct {
	when simclock.Time
	p    *Proc
	seq  int
}

type timerHeap []timerEntry

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x interface{}) { *h = append(*h, x.(timerEntry)) }
func (h *timerHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// addTimer schedules p to be woken at when.
func (k *Kernel) addTimer(p *Proc, when simclock.Time) {
	k.seq++
	heap.Push(&k.timers, timerEntry{when: when, p: p, seq: k.seq})
}

// makeRunnable moves a blocked process onto the run queue.
func (k *Kernel) makeRunnable(p *Proc, t simclock.Time) {
	if p.state == stateDead {
		return
	}
	if p.state == stateReady || p.state == stateRunning {
		return
	}
	p.state = stateReady
	if t > p.readyTime {
		p.readyTime = t
	}
	k.seq++
	p.enqueueSeq = k.seq
	k.runq = append(k.runq, p)
}

// minCPU returns the CPU whose clock is furthest behind.
func (k *Kernel) minCPU() *cpu {
	best := k.cpus[0]
	for _, c := range k.cpus[1:] {
		if c.now < best.now {
			best = c
		}
	}
	return best
}

// pickNext selects the next process to run and the CPU to run it on,
// firing any timers that come due first. It reports a deadlock when live
// processes exist but nothing can ever run again.
func (k *Kernel) pickNext() (*Proc, *cpu, simclock.Time, error) {
	for {
		c := k.minCPU()
		var best *Proc
		var bestIdx int
		var bestStart simclock.Time
		// Drop processes that died while queued (killed by a signal).
		live := k.runq[:0]
		for _, p := range k.runq {
			if p.state != stateDead {
				live = append(live, p)
			}
		}
		k.runq = live
		for i, p := range k.runq {
			start := c.now
			if p.readyTime > start {
				start = p.readyTime
			}
			if best == nil || start < bestStart ||
				(start == bestStart && p.enqueueSeq < best.enqueueSeq) {
				best, bestIdx, bestStart = p, i, start
			}
		}
		// A timer due before the best dispatch time fires first, since
		// its wakeup may enqueue an earlier process.
		if len(k.timers) > 0 && (best == nil || k.timers[0].when < bestStart) {
			t := heap.Pop(&k.timers).(timerEntry)
			k.makeRunnable(t.p, t.when)
			k.stats.TimersFired++
			continue
		}
		if best == nil {
			return nil, nil, 0, k.deadlockError()
		}
		k.runq = append(k.runq[:bestIdx], k.runq[bestIdx+1:]...)
		return best, c, bestStart, nil
	}
}

func (k *Kernel) deadlockError() error {
	var blocked []string
	ps := make([]*Proc, 0, len(k.procs))
	for _, p := range k.procs {
		ps = append(ps, p)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].pid < ps[j].pid })
	for _, p := range ps {
		if p.state == stateBlocked {
			where := "unknown"
			if p.blockedOn != nil {
				where = p.blockedOn.name
			}
			blocked = append(blocked, fmt.Sprintf("pid %d (%s) on %s", p.pid, p.name, where))
		}
	}
	return fmt.Errorf("guest: deadlock: %d processes blocked with no wake source: %v",
		len(blocked), blocked)
}

// next picks the process to dispatch and gives it the CPU, charging a
// context switch if the CPU last ran someone else. It returns nil when
// the run is over: every process exited, the guest powered off or
// panicked, or it deadlocked or passed the virtual-time guard, which
// k.aborted records.
func (k *Kernel) next() *Proc {
	if k.alive == 0 || k.shutdown {
		return nil
	}
	p, c, start, err := k.pickNext()
	if err == nil && start > k.maxTime {
		err = fmt.Errorf("guest: virtual time guard exceeded at %v", start)
	}
	if err != nil {
		k.aborted = err
		return nil
	}
	if start > c.now {
		c.now = start
	}
	if c.last != nil && c.last != p {
		sameAS := c.last.as == p.as
		c.now = c.now.Add(k.cost.ctxSwitch(sameAS, p.workingSetKB))
		k.stats.ContextSwitch++
	}
	c.last = p
	p.cpu = c
	p.state = stateRunning
	k.current = p
	return p
}

// release gives up the CPU p holds because it blocked, yielded or
// exited. p runs the scheduler itself and resumes its successor
// directly, so a dispatch is one goroutine handoff; when nothing can
// run, it wakes Run instead. It reports whether p picked itself and
// keeps running.
func (p *Proc) release() (picked bool) {
	k := p.k
	k.current = nil
	if p.state == stateRunning { // the process yielded voluntarily
		p.state = stateReady
		p.readyTime = p.cpu.now
		k.seq++
		p.enqueueSeq = k.seq
		k.runq = append(k.runq, p)
	}
	p.cpu = nil
	switch next := k.next(); next {
	case p:
		return true
	case nil:
		k.halted <- struct{}{}
	default:
		next.resume <- struct{}{}
	}
	return false
}

// procKilled unwinds a killed process goroutine; recovered in procMain.
type procKilled struct{}

// switchOut hands the CPU on and waits to be resumed. If the kernel
// killed the process meanwhile, the goroutine unwinds.
func (p *Proc) switchOut() {
	if p.release() {
		return
	}
	<-p.resume
	if p.killed {
		panic(procKilled{})
	}
}

// blockOn parks the process on wq until woken. Returns the virtual time
// at which the process resumed.
func (p *Proc) blockOn(wq *waitQueue) simclock.Time {
	wq.enqueue(p)
	p.state = stateBlocked
	p.blockedOn = wq
	p.switchOut()
	p.blockedOn = nil
	return p.cpu.now
}

// charge consumes CPU time on the process's current CPU, scaled by the
// kernel's runtime factor (-Os penalty).
func (p *Proc) charge(d simclock.Duration) {
	if d < 0 {
		panic("guest: negative charge")
	}
	scaled := simclock.Duration(float64(d) * p.k.cost.RuntimeScale)
	p.cpu.now = p.cpu.now.Add(scaled)
}

// chargeRaw consumes CPU time without the runtime scale (used for fixed
// hardware costs like privilege transitions).
func (p *Proc) chargeRaw(d simclock.Duration) {
	p.cpu.now = p.cpu.now.Add(d)
}

// Yield voluntarily releases the CPU (sched_yield).
func (p *Proc) Yield() {
	p.sysEnterFree("sched_yield")
	p.switchOut()
}
