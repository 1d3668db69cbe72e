package vmm

// The supervisor models the monitor-side crash-recovery loop a production
// deployment wraps around a microVM: the Linux panic=reboot idiom driven
// from outside the guest. Firecracker's jailer (and every serious
// unikernel deployment story) restarts a dead VM; what the paper's thesis
// predicts — and the chaos experiment measures — is that a Lupine guest
// with full multi-process support *degrades* under faults that make a
// unikernel-style guest *die*, so the supervisor restarts it less often
// and availability stays higher.
//
// Everything here runs in virtual time on a simclock.Clock, so a fault
// storm replays bit-for-bit for a fixed seed.

import (
	"errors"
	"fmt"
	"strconv"

	"lupine/internal/faults"
	"lupine/internal/simclock"
	"lupine/internal/telemetry"
)

// SiteDeviceProbe is the VMM-owned fault-injection site on the device
// enumeration path during boot: a firing models a virtio probe failure
// and aborts the boot.
const SiteDeviceProbe = "vmm/device-probe"

func init() {
	faults.RegisterSite(SiteDeviceProbe, "vmm",
		"a device probe fails during boot; the attempt ends in OutcomeBootFail")
}

// ErrDeviceProbe is returned (wrapped) by boot paths when the
// vmm/device-probe site fires.
var ErrDeviceProbe = errors.New("vmm: device probe failed")

// Outcome classifies how one VM lifetime under the supervisor ended.
type Outcome int

// Outcomes, in roughly increasing order of progress made.
const (
	OutcomeBootFail Outcome = iota // never came up: probe/mount/image failure
	OutcomeHang                    // missed the boot/init watchdog
	OutcomePanic                   // came up (or not) and died of a guest panic
	OutcomeOK                      // workload ran to completion
)

// String names the outcome the way the chaos table prints it.
func (o Outcome) String() string {
	switch o {
	case OutcomeBootFail:
		return "boot-fail"
	case OutcomeHang:
		return "hang"
	case OutcomePanic:
		return "panic"
	case OutcomeOK:
		return "ok"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Attempt is what one VM lifetime reports back to the supervisor.
type Attempt struct {
	Outcome    Outcome
	Ready      bool              // init completed; the service was up at some point
	ReadyAfter simclock.Duration // boot+init latency (valid when Ready)
	Ran        simclock.Duration // total virtual time this lifetime consumed
	Detail     string            // human-readable cause ("kernel panic: ...", etc.)

	// Telemetry, when set and the supervisor is being observed, is called
	// with the attempt's start instant on the supervised timeline so the
	// lifetime can emit its own sub-spans (e.g. boot phases) at the right
	// offset. The supervisor owns the timeline; the boot fn does not.
	Telemetry func(tr *telemetry.Tracer, track string, start simclock.Time)
}

// BootFn runs one complete VM lifetime (boot, init, workload) and reports
// how it went. The attempt argument counts from 1.
type BootFn func(attempt int) Attempt

// RestartPolicy is the panic=reboot configuration of the supervisor.
type RestartPolicy struct {
	MaxRestarts     int               // restarts after the first attempt (0 = never restart)
	Backoff         simclock.Duration // delay before the first restart
	BackoffFactor   int               // exponential growth factor (0 or 1 = constant)
	MaxBackoff      simclock.Duration // backoff ceiling (0 = uncapped)
	BootWatchdog    simclock.Duration // attempts not ready within this are reclassified Hang (0 = disabled)
	CrashLoopBudget int               // consecutive never-ready attempts before giving up (0 = disabled)
}

// AttemptRecord is an Attempt plus its position on the virtual timeline.
type AttemptRecord struct {
	Attempt
	Start   simclock.Time     // when this lifetime began
	Backoff simclock.Duration // delay charged before this attempt (0 for the first)
}

// SupervisorReport summarizes a whole supervised run.
type SupervisorReport struct {
	Attempts  []AttemptRecord
	Recovered bool // the final attempt completed the workload
	CrashLoop bool // gave up early: CrashLoopBudget consecutive dead-on-arrival boots
	End       simclock.Time

	// Uptime is the virtual time the service was actually serving: the
	// post-ready portion of every ready attempt.
	Uptime simclock.Duration

	// RecoverySamples holds, for every attempt that reached ready, the
	// downtime that preceded it — from the previous loss of service (or
	// the start of the timeline) to the ready instant.
	RecoverySamples []simclock.Duration
}

// Restarts counts restarts actually performed (attempts beyond the first).
func (r *SupervisorReport) Restarts() int {
	if len(r.Attempts) == 0 {
		return 0
	}
	return len(r.Attempts) - 1
}

// Availability is uptime over total wall-clock of the supervised run.
func (r *SupervisorReport) Availability() float64 {
	if r.End == 0 {
		return 0
	}
	return float64(r.Uptime) / float64(r.End)
}

// MeanRecovery averages the downtime samples; 0 if the service never had
// to recover.
func (r *SupervisorReport) MeanRecovery() simclock.Duration {
	if len(r.RecoverySamples) == 0 {
		return 0
	}
	var sum simclock.Duration
	for _, s := range r.RecoverySamples {
		sum += s
	}
	return sum / simclock.Duration(len(r.RecoverySamples))
}

// Stats is the supervisor's counter view: the one source of truth the
// fleet health checker and the chaos tables both read. All fields are
// derived from the report, so a Stats value is always consistent with
// the attempt timeline it summarizes.
type Stats struct {
	Restarts    int               // attempts beyond the first
	BootFails   int               // attempts ending OutcomeBootFail
	Hangs       int               // attempts ending OutcomeHang
	Panics      int               // attempts ending OutcomePanic
	OKs         int               // attempts ending OutcomeOK
	LastBackoff simclock.Duration // backoff charged before the final attempt
	Recovered   bool
	CrashLoop   bool
	Uptime      simclock.Duration
}

// Count reports the total for one outcome.
func (s Stats) Count(o Outcome) int {
	switch o {
	case OutcomeBootFail:
		return s.BootFails
	case OutcomeHang:
		return s.Hangs
	case OutcomePanic:
		return s.Panics
	case OutcomeOK:
		return s.OKs
	default:
		return 0
	}
}

// Stats summarizes the report into counters.
func (r *SupervisorReport) Stats() Stats {
	s := Stats{
		Restarts:  r.Restarts(),
		Recovered: r.Recovered,
		CrashLoop: r.CrashLoop,
		Uptime:    r.Uptime,
	}
	for _, a := range r.Attempts {
		switch a.Outcome {
		case OutcomeBootFail:
			s.BootFails++
		case OutcomeHang:
			s.Hangs++
		case OutcomePanic:
			s.Panics++
		case OutcomeOK:
			s.OKs++
		}
	}
	if n := len(r.Attempts); n > 0 {
		s.LastBackoff = r.Attempts[n-1].Backoff
	}
	return s
}

// Supervisor runs VM lifetimes under a restart policy.
type Supervisor struct {
	Policy RestartPolicy

	tr      *telemetry.Tracer
	trTrack string
}

// Observe makes subsequent runs emit per-attempt spans (cat "vmm"),
// backoff spans, and flight-recorder trips on panic and crash-loop onto
// tr, using track as the display lane. Nil-safe.
func (s *Supervisor) Observe(tr *telemetry.Tracer, track string) {
	if s == nil || tr == nil {
		return
	}
	s.tr = tr
	s.trTrack = track
}

// NewSupervisor returns a supervisor with the given panic=reboot policy.
func NewSupervisor(policy RestartPolicy) *Supervisor {
	return &Supervisor{Policy: policy}
}

// Supervise runs boot under the restart policy on a fresh virtual
// timeline and returns the full report. Deterministic: the only inputs
// are the policy and whatever determinism boot itself provides.
func Supervise(policy RestartPolicy, boot BootFn) SupervisorReport {
	return NewSupervisor(policy).Run(boot)
}

// Run executes boot under the supervisor's policy on a fresh virtual
// timeline and returns its report.
func (s *Supervisor) Run(boot BootFn) SupervisorReport {
	policy := s.Policy
	clk := simclock.New()
	var rep SupervisorReport
	backoff := policy.Backoff
	consecutiveDOA := 0
	var downSince simclock.Time // when service was last lost (timeline start counts)

	for attempt := 1; ; attempt++ {
		var charged simclock.Duration
		if attempt > 1 {
			charged = backoff
			clk.Advance(backoff)
			if f := policy.BackoffFactor; f > 1 {
				backoff *= simclock.Duration(f)
			}
			if policy.MaxBackoff > 0 && backoff > policy.MaxBackoff {
				backoff = policy.MaxBackoff
			}
		}
		start := clk.Now()
		att := boot(attempt)
		// The watchdog fires from outside the guest: a lifetime that did
		// not reach ready within the budget is cut off and reclassified,
		// whatever the guest thought it was doing.
		if policy.BootWatchdog > 0 && !att.Ready && att.Ran > policy.BootWatchdog {
			att.Outcome = OutcomeHang
			att.Ran = policy.BootWatchdog
			att.Detail = fmt.Sprintf("boot watchdog fired after %v", policy.BootWatchdog)
		}
		clk.Advance(att.Ran)
		rep.Attempts = append(rep.Attempts, AttemptRecord{Attempt: att, Start: start, Backoff: charged})

		if s.tr != nil {
			if charged > 0 {
				s.tr.Span("vmm", s.trTrack, "backoff", start.Add(-charged), start,
					telemetry.A("before-attempt", strconv.Itoa(attempt)))
			}
			s.tr.Span("vmm", s.trTrack, fmt.Sprintf("attempt %d: %s", attempt, att.Outcome), start, clk.Now(),
				telemetry.A("ready", strconv.FormatBool(att.Ready)),
				telemetry.A("detail", att.Detail))
			if att.Telemetry != nil {
				att.Telemetry(s.tr, s.trTrack, start)
			}
			if att.Outcome == OutcomePanic {
				s.tr.Trip(s.trTrack, "kernel-panic", clk.Now())
			}
		}

		if att.Ready {
			consecutiveDOA = 0
			rep.Uptime += att.Ran - att.ReadyAfter
			readyAt := start.Add(att.ReadyAfter)
			rep.RecoverySamples = append(rep.RecoverySamples, readyAt.Sub(downSince))
			downSince = clk.Now() // service lost again when the lifetime ends
		} else {
			consecutiveDOA++
		}

		if att.Outcome == OutcomeOK {
			rep.Recovered = true
			break
		}
		if policy.CrashLoopBudget > 0 && consecutiveDOA >= policy.CrashLoopBudget {
			rep.CrashLoop = true
			if s.tr != nil {
				s.tr.Trip(s.trTrack, "crash-loop", clk.Now())
			}
			break
		}
		if attempt-1 >= policy.MaxRestarts {
			break
		}
	}
	rep.End = clk.Now()
	return rep
}
