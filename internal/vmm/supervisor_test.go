package vmm

import (
	"testing"

	"lupine/internal/simclock"
)

const ms = simclock.Millisecond

// scripted builds a BootFn that replays a fixed sequence of attempts and
// fails the test if called more often than scripted.
func scripted(t *testing.T, seq []Attempt) BootFn {
	t.Helper()
	return func(attempt int) Attempt {
		if attempt > len(seq) {
			t.Fatalf("boot called %d times, scripted %d", attempt, len(seq))
		}
		return seq[attempt-1]
	}
}

func TestBackoffSchedule(t *testing.T) {
	policy := RestartPolicy{
		MaxRestarts:   4,
		Backoff:       10 * ms,
		BackoffFactor: 2,
		MaxBackoff:    30 * ms,
	}
	crash := Attempt{Outcome: OutcomePanic, Ready: true, ReadyAfter: 1 * ms, Ran: 5 * ms}
	rep := Supervise(policy, scripted(t, []Attempt{crash, crash, crash, crash, crash}))

	if got := rep.Restarts(); got != 4 {
		t.Fatalf("restarts = %d, want 4", got)
	}
	// Attempt starts: 0; 5+10; +5+20; +5+30 (capped); +5+30.
	wantStarts := []simclock.Time{0, simclock.Time(15 * ms), simclock.Time(40 * ms), simclock.Time(75 * ms), simclock.Time(110 * ms)}
	wantBackoff := []simclock.Duration{0, 10 * ms, 20 * ms, 30 * ms, 30 * ms}
	for i, rec := range rep.Attempts {
		if rec.Start != wantStarts[i] {
			t.Errorf("attempt %d start = %v, want %v", i+1, rec.Start, wantStarts[i])
		}
		if rec.Backoff != wantBackoff[i] {
			t.Errorf("attempt %d backoff = %v, want %v", i+1, rec.Backoff, wantBackoff[i])
		}
	}
	if rep.Recovered {
		t.Error("recovered = true for all-panic run")
	}
	if rep.End != simclock.Time(115*ms) {
		t.Errorf("end = %v, want %v", rep.End, simclock.Time(115*ms))
	}
}

func TestWatchdogReclassifiesSlowBoot(t *testing.T) {
	policy := RestartPolicy{MaxRestarts: 1, Backoff: 1 * ms, BootWatchdog: 20 * ms}
	rep := Supervise(policy, scripted(t, []Attempt{
		{Outcome: OutcomePanic, Ready: false, Ran: 500 * ms, Detail: "stuck in initramfs"},
		{Outcome: OutcomeOK, Ready: true, ReadyAfter: 2 * ms, Ran: 10 * ms},
	}))
	first := rep.Attempts[0]
	if first.Outcome != OutcomeHang {
		t.Errorf("outcome = %v, want hang", first.Outcome)
	}
	if first.Ran != 20*ms {
		t.Errorf("ran = %v, want watchdog budget %v", first.Ran, 20*ms)
	}
	// A ready attempt is never reclassified, however long it ran.
	if rep.Attempts[1].Outcome != OutcomeOK {
		t.Errorf("second outcome = %v, want ok", rep.Attempts[1].Outcome)
	}
	if !rep.Recovered {
		t.Error("recovered = false, want true")
	}
}

func TestCrashLoopCutoff(t *testing.T) {
	doa := Attempt{Outcome: OutcomeBootFail, Ran: 2 * ms}
	cases := []struct {
		name         string
		budget       int
		seq          []Attempt
		wantAttempts int
		wantLoop     bool
	}{
		{"cutoff after budget", 3, []Attempt{doa, doa, doa, doa, doa}, 3, true},
		{"ready attempt resets the counter", 3, []Attempt{
			doa, doa,
			{Outcome: OutcomePanic, Ready: true, ReadyAfter: 1 * ms, Ran: 5 * ms},
			doa, doa, doa,
		}, 6, true},
		{"disabled budget never cuts off", 0, []Attempt{doa, doa, doa, doa, doa, doa}, 6, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			policy := RestartPolicy{MaxRestarts: 5, Backoff: 1 * ms, CrashLoopBudget: tc.budget}
			rep := Supervise(policy, scripted(t, tc.seq))
			if len(rep.Attempts) != tc.wantAttempts {
				t.Errorf("attempts = %d, want %d", len(rep.Attempts), tc.wantAttempts)
			}
			if rep.CrashLoop != tc.wantLoop {
				t.Errorf("crashLoop = %v, want %v", rep.CrashLoop, tc.wantLoop)
			}
		})
	}
}

func TestAvailabilityAndRecoveryAccounting(t *testing.T) {
	policy := RestartPolicy{MaxRestarts: 2, Backoff: 10 * ms}
	rep := Supervise(policy, scripted(t, []Attempt{
		{Outcome: OutcomePanic, Ready: true, ReadyAfter: 5 * ms, Ran: 25 * ms}, // up 20ms, dies at T=25
		{Outcome: OutcomeBootFail, Ran: 3 * ms},                                // down throughout
		{Outcome: OutcomeOK, Ready: true, ReadyAfter: 5 * ms, Ran: 45 * ms},    // ready at T=53, up 40ms
	}))
	// Timeline: [0,25) attempt1, [25,35) backoff, [35,38) attempt2,
	// [38,48) backoff, [48,93) attempt3.
	if rep.End != simclock.Time(93*ms) {
		t.Fatalf("end = %v, want %v", rep.End, simclock.Time(93*ms))
	}
	if rep.Uptime != 60*ms {
		t.Errorf("uptime = %v, want %v", rep.Uptime, 60*ms)
	}
	if got, want := rep.Availability(), float64(60)/93; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("availability = %v, want %v", got, want)
	}
	// Recovery samples: first boot 5ms; then down from T=25 to ready at
	// T=53 → 28ms.
	want := []simclock.Duration{5 * ms, 28 * ms}
	if len(rep.RecoverySamples) != len(want) {
		t.Fatalf("recovery samples = %v, want %v", rep.RecoverySamples, want)
	}
	for i := range want {
		if rep.RecoverySamples[i] != want[i] {
			t.Errorf("sample %d = %v, want %v", i, rep.RecoverySamples[i], want[i])
		}
	}
	if rep.MeanRecovery() != (5*ms+28*ms)/2 {
		t.Errorf("mean recovery = %v, want %v", rep.MeanRecovery(), (5*ms+28*ms)/2)
	}
	if !rep.Recovered {
		t.Error("recovered = false, want true")
	}
}

func TestSupervisorStats(t *testing.T) {
	rep := Supervise(RestartPolicy{MaxRestarts: 4, Backoff: 10 * ms, BackoffFactor: 2}, scripted(t, []Attempt{
		{Outcome: OutcomeBootFail, Ran: 2 * ms},
		{Outcome: OutcomePanic, Ready: true, ReadyAfter: 1 * ms, Ran: 5 * ms},
		{Outcome: OutcomeHang, Ran: 8 * ms},
		{Outcome: OutcomeOK, Ready: true, ReadyAfter: 1 * ms, Ran: 10 * ms},
	}))
	st := rep.Stats()
	if st.Restarts != 3 {
		t.Errorf("restarts = %d, want 3", st.Restarts)
	}
	want := map[Outcome]int{OutcomeBootFail: 1, OutcomePanic: 1, OutcomeHang: 1, OutcomeOK: 1}
	for o, n := range want {
		if got := st.Count(o); got != n {
			t.Errorf("count(%v) = %d, want %d", o, got, n)
		}
	}
	if st.BootFails != 1 || st.Hangs != 1 || st.Panics != 1 || st.OKs != 1 {
		t.Errorf("per-outcome totals = %+v, want one each", st)
	}
	// Backoff schedule 10, 20, 40: the final attempt was charged 40ms.
	if st.LastBackoff != 40*ms {
		t.Errorf("last backoff = %v, want %v", st.LastBackoff, 40*ms)
	}
	if !st.Recovered || st.CrashLoop {
		t.Errorf("recovered=%v crashLoop=%v, want true/false", st.Recovered, st.CrashLoop)
	}
	// Uptime: (5-1) + (10-1) = 13ms, matching the report the stats mirror.
	if st.Uptime != 13*ms {
		t.Errorf("uptime = %v, want %v", st.Uptime, 13*ms)
	}
	if st.Uptime != rep.Uptime {
		t.Error("stats uptime diverges from report uptime")
	}
}

func TestNoRestartPolicy(t *testing.T) {
	rep := Supervise(RestartPolicy{}, scripted(t, []Attempt{
		{Outcome: OutcomePanic, Ready: true, ReadyAfter: 2 * ms, Ran: 10 * ms, Detail: "unikernel has no reboot"},
	}))
	if got := rep.Restarts(); got != 0 {
		t.Errorf("restarts = %d, want 0", got)
	}
	if rep.Recovered {
		t.Error("recovered = true, want false")
	}
}

// TestRunWithRestoreInterleaving pins Run over restart sequences in
// which snapshot restores, restores that fell back to a cold boot inside
// the attempt, and DOAs interleave: the policy treats every restart
// alike — same backoff schedule, same MaxRestarts budget, same
// crash-loop accounting — whatever shape the attempt had.
func TestRunWithRestoreInterleaving(t *testing.T) {
	ok := Attempt{Outcome: OutcomeOK, Ready: true, ReadyAfter: 1 * ms, Ran: 5 * ms}
	panicUp := Attempt{Outcome: OutcomePanic, Ready: true, ReadyAfter: 1 * ms, Ran: 5 * ms}
	// A restore that found a corrupt snapshot and fell back to a cold
	// boot inside the attempt: slower ready, still a panic later.
	fallback := Attempt{Outcome: OutcomePanic, Ready: true, ReadyAfter: 12 * ms, Ran: 20 * ms}
	doa := Attempt{Outcome: OutcomeBootFail, Ran: 2 * ms}

	cases := []struct {
		name   string
		policy RestartPolicy
		seq    []Attempt // indexed by global attempt number

		wantBackoffs  []simclock.Duration
		wantRecovered bool
		wantCrashLoop bool
	}{
		{
			name:          "restore recovers on first restart",
			policy:        RestartPolicy{MaxRestarts: 3, Backoff: 10 * ms, BackoffFactor: 2},
			seq:           []Attempt{panicUp, ok},
			wantBackoffs:  []simclock.Duration{0, 10 * ms},
			wantRecovered: true,
		},
		{
			name:          "fallback interleaves with clean restore",
			policy:        RestartPolicy{MaxRestarts: 3, Backoff: 10 * ms, BackoffFactor: 2},
			seq:           []Attempt{panicUp, fallback, ok},
			wantBackoffs:  []simclock.Duration{0, 10 * ms, 20 * ms},
			wantRecovered: true,
		},
		{
			name:          "restore DOAs trip the crash-loop budget",
			policy:        RestartPolicy{MaxRestarts: 9, Backoff: 1 * ms, CrashLoopBudget: 3},
			seq:           []Attempt{doa, doa, doa},
			wantBackoffs:  []simclock.Duration{0, 1 * ms, 1 * ms},
			wantCrashLoop: true,
		},
		{
			name:         "restore restarts exhaust MaxRestarts like cold ones",
			policy:       RestartPolicy{MaxRestarts: 2, Backoff: 5 * ms},
			seq:          []Attempt{panicUp, fallback, panicUp},
			wantBackoffs: []simclock.Duration{0, 5 * ms, 5 * ms},
		},
		{
			name:          "recovers on the last allowed restart",
			policy:        RestartPolicy{MaxRestarts: 1, Backoff: 5 * ms},
			seq:           []Attempt{panicUp, ok},
			wantBackoffs:  []simclock.Duration{0, 5 * ms},
			wantRecovered: true,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := NewSupervisor(tc.policy).Run(scripted(t, tc.seq))
			if len(rep.Attempts) != len(tc.wantBackoffs) {
				t.Fatalf("%d attempts, want %d", len(rep.Attempts), len(tc.wantBackoffs))
			}
			for i, rec := range rep.Attempts {
				if rec.Backoff != tc.wantBackoffs[i] {
					t.Errorf("attempt %d backoff %v, want %v", i+1, rec.Backoff, tc.wantBackoffs[i])
				}
			}
			if rep.Recovered != tc.wantRecovered || rep.CrashLoop != tc.wantCrashLoop {
				t.Errorf("recovered=%v crashloop=%v, want %v/%v",
					rep.Recovered, rep.CrashLoop, tc.wantRecovered, tc.wantCrashLoop)
			}
			if got := rep.Restarts(); got != len(tc.seq)-1 {
				t.Errorf("restarts %d, want %d", got, len(tc.seq)-1)
			}
		})
	}
}
