// Package faults is the deterministic fault-injection plane threaded
// through the simulation substrate. Subsystems register named injection
// sites at init time (guest page allocation, OOM pressure, transient
// syscall errors, ext2 block reads, VMM device probing, loopback
// drop/delay); an experiment describes a fault storm as a Plan — an
// explicit seed plus rules with virtual-time windows, nth-hit and
// seeded-probability triggers — and threads an Injector through boot,
// mount and guest execution. The same Plan and seed always produce the
// same storm, so chaos experiments are bit-for-bit reproducible.
package faults

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"lupine/internal/simclock"
	"lupine/internal/telemetry"
)

// Site is one named injection point, registered by the subsystem that
// owns it.
type Site struct {
	Name      string // e.g. "guest/page-alloc"
	Subsystem string // e.g. "guest"
	Doc       string // what firing at this site models
}

var (
	regMu    sync.Mutex
	registry = make(map[string]Site)
)

// RegisterSite declares an injection site. Subsystems call it from init;
// duplicate names are a programming error. It returns the name so call
// sites can register and bind a constant in one expression.
func RegisterSite(name, subsystem, doc string) string {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("faults: duplicate site %q", name))
	}
	registry[name] = Site{Name: name, Subsystem: subsystem, Doc: doc}
	return name
}

// Sites lists every registered site, sorted by name.
func Sites() []Site {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]Site, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func siteRegistered(name string) bool {
	regMu.Lock()
	defer regMu.Unlock()
	_, ok := registry[name]
	return ok
}

// Rule arms one site. A rule fires when a hit lands inside its
// virtual-time window and the trigger matches: NthHit > 0 fires exactly
// on the nth in-window hit; otherwise Prob is evaluated against the
// plan's seeded random stream on every in-window hit. Limit caps the
// total fires of a probabilistic rule (0 = one per hit forever).
type Rule struct {
	Site string

	// Window in virtual time. To == 0 means open-ended.
	From simclock.Time
	To   simclock.Time

	NthHit int     // fire exactly on this in-window hit (1-based); 0 = use Prob
	Prob   float64 // per-hit fire probability in [0,1]
	Limit  int     // max fires for probabilistic rules (0 = unlimited)

	// Param is the site-specific payload: an errno selector for
	// transient syscall faults, a byte offset for block corruption
	// (negative = short read), a spike size in bytes for OOM pressure,
	// a delay in microseconds for loopback rules.
	Param int64
}

// Plan is a complete seeded fault storm.
type Plan struct {
	Seed  uint64
	Rules []Rule
}

// Validate rejects rules naming unregistered sites or with unusable
// triggers, so typos fail loudly instead of silently never firing.
func (pl Plan) Validate() error {
	for i, r := range pl.Rules {
		if !siteRegistered(r.Site) {
			return fmt.Errorf("faults: rule %d: unregistered site %q", i, r.Site)
		}
		if r.NthHit < 0 {
			return fmt.Errorf("faults: rule %d (%s): negative NthHit", i, r.Site)
		}
		if r.NthHit == 0 && (r.Prob <= 0 || r.Prob > 1) {
			return fmt.Errorf("faults: rule %d (%s): needs NthHit >= 1 or Prob in (0,1]", i, r.Site)
		}
		if r.To != 0 && r.To <= r.From {
			return fmt.Errorf("faults: rule %d (%s): empty window [%v,%v)", i, r.Site, r.From, r.To)
		}
	}
	return nil
}

// Decision is the outcome of one Hit: whether a rule fired and with what
// payload.
type Decision struct {
	Fire  bool
	Param int64
	Rule  int // index into the plan's rules; valid when Fire
}

// Stream is a seedable splitmix64 random stream: tiny and bit-stable
// across platforms, unlike math/rand's unspecified sequence. The injector
// draws fire decisions from one; the fleet front-end draws arrival and
// service jitter from others. Distinct seeds give independent streams,
// and the same seed always replays the same sequence.
type Stream struct {
	state uint64
}

// NewStream returns a stream positioned at seed.
func NewStream(seed uint64) *Stream { return &Stream{state: seed} }

// Uint64 draws the next 64 random bits.
func (st *Stream) Uint64() uint64 {
	st.state += 0x9E3779B97F4A7C15
	z := st.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 draws from [0,1).
func (st *Stream) Float64() float64 {
	return float64(st.Uint64()>>11) / float64(1<<53)
}

// Intn draws from [0,n); n must be positive.
func (st *Stream) Intn(n int) int {
	if n <= 0 {
		panic("faults: Intn with non-positive n")
	}
	return int(st.Uint64() % uint64(n))
}

// Injector evaluates a Plan against a stream of site hits. One injector
// carries state (hit counts, fire counts, the random stream) across a
// whole VM lifecycle including supervisor reboots, so "fail the first
// boot" style rules work naturally. It holds only what decides the next
// fire; the one record of a fire is the "faults" instant it lands on
// the tracer Observe gave it. It is not safe for concurrent use; the
// simulation substrate is single-threaded by construction.
type Injector struct {
	plan     Plan
	rng      *Stream
	ruleHits []int // in-window hits seen per rule
	fired    []int // fires per rule

	tr      *telemetry.Tracer
	trTrack string
}

// New builds an injector for the plan, validating it first.
func New(pl Plan) (*Injector, error) {
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	return &Injector{
		plan:     pl,
		rng:      NewStream(pl.Seed),
		ruleHits: make([]int, len(pl.Rules)),
		fired:    make([]int, len(pl.Rules)),
	}, nil
}

// MustNew is New that panics on an invalid plan, for experiment setup.
func MustNew(pl Plan) *Injector {
	inj, err := New(pl)
	if err != nil {
		panic(err)
	}
	return inj
}

// Hit records that execution reached site at virtual time now and
// reports whether a rule fired. A nil injector never fires, so
// subsystems can thread an optional *Injector without guards.
func (inj *Injector) Hit(site string, now simclock.Time) Decision {
	if inj == nil {
		return Decision{}
	}
	// Every matching rule counts the hit (and probabilistic rules draw
	// from the random stream) even after another rule has fired, so each
	// rule's trigger state is a pure function of the hit sequence. The
	// first rule to trigger wins the decision.
	var out Decision
	for i := range inj.plan.Rules {
		r := &inj.plan.Rules[i]
		if r.Site != site || now < r.From || (r.To != 0 && now >= r.To) {
			continue
		}
		inj.ruleHits[i]++
		triggered := false
		if r.NthHit > 0 {
			triggered = inj.ruleHits[i] == r.NthHit
		} else if r.Limit == 0 || inj.fired[i] < r.Limit {
			triggered = inj.rng.Float64() < r.Prob
		}
		if triggered && !out.Fire {
			inj.fired[i]++
			out = Decision{Fire: true, Param: r.Param, Rule: i}
		}
	}
	if out.Fire && inj.tr != nil {
		inj.tr.Instant("faults", inj.trTrack, site, now,
			telemetry.A("rule", strconv.Itoa(out.Rule)),
			telemetry.A("param", strconv.FormatInt(out.Param, 10)))
	}
	return out
}

// Arms reports whether the plan has a rule for site. A Hit on a site no
// rule names draws nothing and counts nothing, so a hot path may ask
// once and skip its Hits on the sites this reports false for. A nil
// injector arms nothing.
func (inj *Injector) Arms(site string) bool {
	if inj == nil {
		return false
	}
	for _, r := range inj.plan.Rules {
		if r.Site == site {
			return true
		}
	}
	return false
}

// Observe makes every subsequent fault firing a "faults" instant on the
// tracer, on the given track, named by its site and carrying its rule
// and param. Nil-safe on both sides. An unobserved injector records
// nothing.
func (inj *Injector) Observe(tr *telemetry.Tracer, track string) {
	if inj == nil || tr == nil {
		return
	}
	inj.tr = tr
	inj.trTrack = track
}
