package fleet

import (
	"testing"

	"lupine/internal/simclock"
)

const ms = simclock.Millisecond

func tcfg() BreakerConfig {
	return BreakerConfig{FailThreshold: 3}
}

func at(d simclock.Duration) simclock.Time { return simclock.Time(d) }

func TestBreakerTripsOnConsecutiveFailures(t *testing.T) {
	b := NewBreaker(tcfg())
	b.Failure(at(1 * ms))
	b.Success(at(2 * ms)) // success resets the consecutive count
	b.Failure(at(3 * ms))
	b.Failure(at(4 * ms))
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v after 2 consecutive failures, want closed", b.State())
	}
	b.Failure(at(5 * ms))
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v after 3 consecutive failures, want open", b.State())
	}
	if b.ReopenAt() != at(10*ms) {
		t.Errorf("reopenAt = %v, want %v", b.ReopenAt(), at(10*ms))
	}
	if b.Allow(at(6 * ms)) {
		t.Error("open breaker allowed a request before cool-down")
	}
}

func TestBreakerHalfOpenLifecycle(t *testing.T) {
	b := NewBreaker(tcfg())
	for i := 0; i < 3; i++ {
		b.Failure(at(1 * ms))
	}
	// Cool-down elapses: the next Allow flips to half-open and admits.
	if !b.Allow(at(7 * ms)) {
		t.Fatal("breaker did not admit after cool-down")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	// One trial success plus one probe success close it.
	b.Success(at(8 * ms))
	b.ProbeSuccess(at(9 * ms))
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v after %d successes, want closed", b.State(), breakerHalfOpenSuccesses)
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	for _, probe := range []bool{false, true} {
		b := NewBreaker(tcfg())
		for i := 0; i < 3; i++ {
			b.Failure(at(1 * ms))
		}
		b.Allow(at(7 * ms))
		if probe {
			b.ProbeFailure(at(8 * ms))
		} else {
			b.Failure(at(8 * ms))
		}
		if b.State() != BreakerOpen {
			t.Errorf("probe=%v: state = %v after half-open failure, want open", probe, b.State())
		}
		if b.ReopenAt() != at(13*ms) {
			t.Errorf("probe=%v: reopenAt = %v, want %v", probe, b.ReopenAt(), at(13*ms))
		}
	}
}

func TestBreakerProbeFailureIgnoredWhileClosed(t *testing.T) {
	b := NewBreaker(tcfg())
	for i := 0; i < 10; i++ {
		b.ProbeFailure(at(simclock.Duration(i) * ms))
	}
	if b.State() != BreakerClosed {
		t.Errorf("state = %v, want closed: probe failures are the health checker's business", b.State())
	}
}

// TestBreakerReplayDeterministic is the deterministic-replay contract: a
// table of seeded fleet scenarios, each run twice; identical seeds must
// yield identical open/half-open/close timelines on every backend.
func TestBreakerReplayDeterministic(t *testing.T) {
	flaky := Timeline{
		Up:      []Interval{{From: 0, To: at(20 * ms)}, {From: at(30 * ms), To: at(45 * ms)}},
		End:     at(45 * ms),
		UpAfter: true,
	}
	cases := []struct {
		name string
		seed uint64
		tls  []Timeline
	}{
		{"steady pool, jitter only", 1, []Timeline{AlwaysUp(), AlwaysUp(), flaky}},
		{"two flaky backends", 7, []Timeline{flaky, AlwaysUp(), flaky}},
		{"same storm, other seed", 99, []Timeline{flaky, AlwaysUp(), flaky}},
		{"dead backend", 42, []Timeline{NeverUp(), AlwaysUp(), AlwaysUp()}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func() [][]string {
				cfg := DefaultConfig()
				cfg.Seed = tc.seed
				var backends []*Backend
				for i, tl := range tc.tls {
					backends = append(backends, NewBackend(string(rune('a'+i)), tl))
				}
				f := New(cfg, backends, nil, nil)
				checkConservation(t, f, f.Run())
				var out [][]string
				for _, b := range f.Backends() {
					var lines []string
					for _, tr := range b.Breaker().Transitions {
						lines = append(lines, tr.String())
					}
					out = append(out, lines)
				}
				return out
			}
			first, second := run(), run()
			if len(first) != len(second) {
				t.Fatalf("backend count differs across replays: %d vs %d", len(first), len(second))
			}
			for i := range first {
				if len(first[i]) != len(second[i]) {
					t.Fatalf("backend %d: %d vs %d transitions", i, len(first[i]), len(second[i]))
				}
				for j := range first[i] {
					if first[i][j] != second[i][j] {
						t.Errorf("backend %d transition %d differs:\n  %s\n  %s", i, j, first[i][j], second[i][j])
					}
				}
			}
			// The flaky timelines must actually exercise the breaker,
			// or the replay assertion is vacuous.
			total := 0
			for _, lines := range first {
				total += len(lines)
			}
			if tc.tls[0].End != 0 || tc.tls[2].End != 0 {
				if total == 0 {
					t.Error("no breaker transitions recorded under a flaky pool")
				}
			}
		})
	}
}
