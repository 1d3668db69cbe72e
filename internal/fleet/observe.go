package fleet

import (
	"strconv"

	"lupine/internal/simclock"
	"lupine/internal/telemetry"
)

// Telemetry wiring for the fleet plane. Observe attaches before Run;
// every hook on the dispatch hot path guards with `f.tr != nil`, so a
// fleet without telemetry pays nothing (no argument-slice allocations,
// pinned by TestFleetDisabledTelemetryAllocs).

// Observe attaches the telemetry plane: spans for dispatches, retries
// and provisioning, instant events for admission/health/breaker/OOM
// edges (cat "fleet"), and per-pool counters and a latency histogram in
// reg. Backends already admitted are retro-attached, so Observe can run
// right after New. Either tr or reg may be nil.
func (f *Fleet) Observe(tr *telemetry.Tracer, reg *telemetry.Registry, track string) {
	if f == nil || (tr == nil && reg == nil) {
		return
	}
	f.tr = tr
	f.trTrack = track
	f.netTrack = track + "/net"
	f.net.Observe(tr, f.netTrack)
	f.mOK = reg.Counter(track + ".served")
	f.mShed = reg.Counter(track + ".shed")
	f.mFailed = reg.Counter(track + ".failed")
	f.mRetries = reg.Counter(track + ".retries")
	f.mBreakerOpens = reg.Counter(track + ".breaker-opens")
	f.hLatency = reg.Histogram(track + ".latency")
	for _, b := range f.backends {
		f.observeBackend(b, b.start)
	}
}

// observeBackend marks admission and hooks the breaker's transition
// stream into the event log and the breaker-opens counter, whichever of
// the two is attached. With neither, it installs no hook, so an
// unobserved fleet's breakers allocate nothing.
func (f *Fleet) observeBackend(b *Backend, now simclock.Time) {
	if f.tr == nil && f.mBreakerOpens == nil {
		return
	}
	if f.tr != nil {
		b.lane = f.trTrack + "/" + b.Name
		f.tr.Instant("fleet", b.lane, "admit", now)
	}
	b.breaker.OnTransition = func(t BreakerTransition) {
		if t.To == BreakerOpen {
			f.mBreakerOpens.Inc()
		}
		if f.tr != nil {
			f.tr.Instant("fleet", b.lane, "breaker:"+t.To.String(), t.At,
				telemetry.A("cause", t.Cause))
		}
	}
}

// observeProvision records the provisioning span of an autoscaler- or
// OOM-replacement-launched backend.
func (f *Fleet) observeProvision(b *Backend, from, to simclock.Time, restored bool, why string) {
	if f.tr == nil {
		return
	}
	f.tr.Span("fleet", b.lane, "provision", from, to,
		telemetry.A("restored", strconv.FormatBool(restored)),
		telemetry.A("why", why))
}
