package fleet

import (
	"lupine/internal/fabric"
	"lupine/internal/faults"
	"lupine/internal/simclock"
)

// Attached mode: a fleet that is one cell of a larger control plane
// rather than a self-contained experiment. An attached fleet runs on its
// owner's simclock.Engine and a shared fabric (its balancer and backend
// NICs switched into one zone), and serves traffic the owner Injects —
// each request resolving through a callback — instead of generating its
// own arrival process. Every fleet is built this way: a standalone one
// is an attached cell on an engine and fabric of its own whose Run
// generates the arrivals. So breakers, heartbeat probes, retry budget
// and policy routing are one code path, and the region plane composes
// proven cells instead of reimplementing them.

// Outcome classifies how an injected request resolved.
type Outcome int

const (
	OutcomeOK     Outcome = iota // served within deadline
	OutcomeShed                  // refused at admission or by backlog overflow
	OutcomeFailed                // dispatched but never served
)

func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeShed:
		return "shed"
	case OutcomeFailed:
		return "failed"
	}
	return "?"
}

// NewAttached assembles a fleet cell on the owner's engine and a shared
// fabric built on that engine. Its balancer node and every backend NIC
// are switched into zone (so intra-cell traffic never crosses a trunk),
// and traffic arrives only via Inject. Start begins the heartbeat loop;
// Stop halts it so the owner's engine can drain.
func NewAttached(cfg Config, eng *simclock.Engine, net *fabric.Network, zone string) *Fleet {
	f := &Fleet{
		cfg:         cfg,
		eng:         eng,
		zone:        zone,
		net:         net,
		arrivalRng:  faults.NewStream(cfg.Seed),
		serviceRng:  faults.NewStream(cfg.Seed ^ 0xA5A5A5A5A5A5A5A5),
		retryTokens: retryBurst,
		upgraded:    true,
	}
	f.res.FullAt = -1
	lbName := "lb"
	if zone != "" {
		lbName = zone + "/lb"
	}
	f.lbNode = net.AddNodeZone(lbName, zone)
	return f
}

// Start begins the heartbeat loop, first beat one probe interval after
// now.
func (f *Fleet) Start(now simclock.Time) {
	f.probeLoop = f.probeTick
	f.eng.Post(now.Add(probeInterval), f.probeLoop)
}

// Stop halts the heartbeat loop at its next tick, letting the owning
// engine drain once in-flight work resolves.
func (f *Fleet) Stop() { f.stopped = true }

// A Resolver learns how an injected request resolved.
type Resolver interface {
	Resolved(o Outcome, at simclock.Time)
}

// Inject offers one request to an attached fleet at now. done (may be
// nil) learns exactly once how the request resolved — served, shed, or
// failed — at the resolving instant.
func (f *Fleet) Inject(id int, now simclock.Time, done Resolver) {
	f.res.Total++
	r := &request{f: f, id: id, arrival: now, done: done}
	f.admitRequest(r, now)
}

// Admit places b in rotation at now. Attached-mode owners grow the pool
// directly — evacuation restores and host-crash replacements land here.
func (f *Fleet) Admit(b *Backend, now simclock.Time) {
	f.admit(b, now)
	// Pre-traffic admissions establish the availability floor; admissions
	// after traffic starts (evacuation landings) never raise a historical
	// minimum back up.
	if f.res.Total == 0 && f.activeCount() > f.res.MinActive {
		f.res.MinActive = f.activeCount()
	}
	f.notePool(now)
}

// Retire removes b from the pool immediately, firing its release hooks.
// Attached-mode owners retire crashed hosts' backends before restoring
// replacements; in-flight requests resolve through their own timeouts.
func (f *Fleet) Retire(b *Backend, now simclock.Time) { f.retire(b, now) }

// Drain takes b out of the dispatch rotation, waits for its in-flight
// requests (bounded by timeout), retires it, then fires done (may be
// nil). Attached-mode owners drive rolling upgrades with it — the same
// drain/retire discipline a standalone fleet's upgrade plan uses.
func (f *Fleet) Drain(b *Backend, timeout simclock.Duration, now simclock.Time, done func(now simclock.Time)) {
	f.drain(b, timeout, now, done)
}

// Finish closes out an attached fleet's accounting. Wire counters stay
// with the shared fabric's Stats — they are not per-cell.
func (f *Fleet) Finish(now simclock.Time) Result {
	f.res.End = now
	return f.res
}

// Resolved reports how many injected requests have resolved.
func (f *Fleet) Resolved() int { return f.resolved }
