package fleet

import (
	"reflect"
	"testing"

	"lupine/internal/simclock"
	"lupine/internal/telemetry"
)

func flakyPool() []*Backend {
	flaky := Timeline{
		Up:      []Interval{{From: 0, To: simclock.Time(20 * ms)}},
		End:     simclock.Time(60 * ms),
		UpAfter: true,
	}
	return []*Backend{
		NewBackend("a", AlwaysUp()),
		NewBackend("b", AlwaysUp()),
		NewBackend("c", flaky),
	}
}

// TestFleetDisabledTelemetryAllocs pins the zero-cost-when-disabled
// contract on the dispatch hot path: Observe with both planes nil leaves
// the fleet un-instrumented, and the per-request metric calls the engine
// then makes (nil handles, `f.tr != nil` guards) allocate nothing.
func TestFleetDisabledTelemetryAllocs(t *testing.T) {
	f := New(DefaultConfig(), flakyPool(), nil, nil)
	f.Observe(nil, nil, "x")
	if f.tr != nil || f.mOK != nil || f.hLatency != nil {
		t.Fatal("Observe(nil, nil) instrumented the fleet")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		// Exactly the calls the engine makes per request when disabled.
		f.mOK.Inc()
		f.mShed.Inc()
		f.mFailed.Inc()
		f.mRetries.Inc()
		f.hLatency.Observe(123 * simclock.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("disabled hot-path metrics allocated %.1f per request", allocs)
	}
}

// TestFleetTelemetryIsPureObservation: attaching the full plane must not
// change a single engine decision — both runs produce identical Results.
func TestFleetTelemetryIsPureObservation(t *testing.T) {
	plain := New(DefaultConfig(), flakyPool(), nil, nil)
	base := plain.Run()
	checkConservation(t, plain, base)

	observed := New(DefaultConfig(), flakyPool(), nil, nil)
	tr := telemetry.New()
	reg := telemetry.NewRegistry()
	observed.Observe(tr, reg, "pool")
	got := observed.Run()

	if !reflect.DeepEqual(base, got) {
		t.Fatalf("telemetry changed the run:\nbase %+v\ngot  %+v", base, got)
	}
}

// TestFleetTelemetryContent checks the plane records what the result
// claims: served/failed counters match, the latency histogram saw every
// served request, dispatch spans exist, breaker transitions land as
// events on the backends' lanes, and so does every false trip. The
// partitioned fleet is the run that false-trips.
func TestFleetTelemetryContent(t *testing.T) {
	cases := []struct {
		name  string
		fleet *Fleet
	}{
		{"flaky", New(DefaultConfig(), flakyPool(), nil, nil)},
		{"partitioned", partitionedFleet(t, simclock.Time(10*ms), simclock.Time(45*ms))},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := c.fleet
			tr := telemetry.New()
			reg := telemetry.NewRegistry()
			f.Observe(tr, reg, "pool")
			res := f.Run()
			checkConservation(t, f, res)

			if got := reg.Counter("pool.served").Value(); got != int64(res.OK) {
				t.Errorf("served counter %d, result OK %d", got, res.OK)
			}
			if got := reg.Counter("pool.failed").Value(); got != int64(res.Failed) {
				t.Errorf("failed counter %d, result Failed %d", got, res.Failed)
			}
			if got := reg.Counter("pool.retries").Value(); got != int64(res.Retries) {
				t.Errorf("retries counter %d, result Retries %d", got, res.Retries)
			}
			// Result.BreakerOpens also counts failures landing on an
			// already-open breaker, so the counter is checked against the
			// transition records — the ground truth for actual
			// closed/half-open -> open edges.
			var opens int64
			for _, b := range f.Backends() {
				if br := b.Breaker(); br != nil {
					for _, tr := range br.Transitions {
						if tr.To == BreakerOpen {
							opens++
						}
					}
				}
			}
			if got := reg.Counter("pool.breaker-opens").Value(); got != opens || opens == 0 {
				t.Errorf("breaker-opens counter %d, recorded open transitions %d (want equal, nonzero)", got, opens)
			}
			if got := reg.Histogram("pool.latency").Count(); got != int64(res.OK) {
				t.Errorf("latency histogram saw %d samples, served %d", got, res.OK)
			}

			var dispatches int
			for _, s := range tr.Spans() {
				if s.Cat == "fleet" && s.Name == "dispatch" {
					dispatches++
				}
			}
			if dispatches != res.OK {
				t.Errorf("dispatch spans %d, served %d", dispatches, res.OK)
			}

			var transitions int
			for _, b := range f.Backends() {
				if br := b.Breaker(); br != nil {
					transitions += len(br.Transitions)
				}
			}
			events, falseTrips := breakerEvents(tr)
			if events != transitions || transitions == 0 {
				t.Errorf("breaker transition events %d, recorded transitions %d (want equal, nonzero)", events, transitions)
			}
			if falseTrips != res.FalseTrips {
				t.Errorf("false-trip events %d, result FalseTrips %d", falseTrips, res.FalseTrips)
			}
			if c.name == "partitioned" && res.FalseTrips == 0 {
				t.Error("the partitioned run never false-tripped")
			}
		})
	}
}

// breakerEvents counts a trace's breaker instants: the transitions
// (breaker:closed, breaker:open, breaker:half-open) and, apart, the
// false trips.
func breakerEvents(tr *telemetry.Tracer) (transitions, falseTrips int) {
	for _, e := range tr.EventsSince(0) {
		if e.Cat != "fleet" {
			continue
		}
		switch e.Name {
		case "breaker:closed", "breaker:open", "breaker:half-open":
			transitions++
		case "breaker:false-trip":
			falseTrips++
		}
	}
	return transitions, falseTrips
}
