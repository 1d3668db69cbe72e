package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"lupine/internal/telemetry"
	"lupine/internal/vmm"
)

// withTelemetry returns a fresh Env at the default seed carrying its
// own tracer and registry, so a test watches exactly one run and shares
// nothing with the tests beside it.
func withTelemetry() *Env {
	env := newEnv()
	env.Trace = telemetry.New()
	env.Metrics = telemetry.NewRegistry()
	return env
}

// poolTrack strips the backend segment off a fleet lane:
// "memstorm/lupine+mp/clone2" -> "memstorm/lupine+mp".
func poolTrack(lane string) string {
	if i := strings.LastIndex(lane, "/"); i >= 0 {
		return lane[:i]
	}
	return lane
}

// TestMemStormTraceDeterministicAndComplete is the acceptance gate: two
// same-seed memstorm runs export byte-identical, valid Chrome trace
// JSON containing spans from all five planes plus fault instants, and
// every fleet OOM-kill event on a ladder pool is preceded (in record
// order) by that pool's hostmem kill-request rung.
func TestMemStormTraceDeterministicAndComplete(t *testing.T) {
	t.Parallel()
	run := func() ([]byte, *telemetry.Tracer, []memResult) {
		env := withTelemetry()
		results, err := memStorm.run(env)
		if err != nil {
			t.Fatalf("memstorm: %v", err)
		}
		return env.Trace.ChromeTrace(), env.Trace, results
	}
	trace1, tr, results := run()
	trace2, _, _ := run()

	if !bytes.Equal(trace1, trace2) {
		t.Fatal("same-seed memstorm runs exported different traces")
	}
	if !json.Valid(trace1) {
		t.Fatal("memstorm trace is not valid JSON")
	}

	spanCats := map[string]bool{}
	for _, s := range tr.Spans() {
		spanCats[s.Cat] = true
	}
	for _, want := range []string{"boot", "vmm", "fleet", "snapshot", "hostmem"} {
		if !spanCats[want] {
			t.Errorf("no %q span in the memstorm trace", want)
		}
	}
	var faultEvents int
	for _, e := range tr.EventsSince(0) {
		if e.Cat == "faults" {
			faultEvents++
		}
	}
	if faultEvents == 0 {
		t.Error("the stall variant fired no fault instants")
	}

	// Ladder pools: every oom-kill is the end of a kill-request rung.
	ladder := map[string]bool{}
	var wantKills int
	for _, r := range results {
		if r.Ladder {
			ladder["memstorm/"+r.System] = true
			wantKills += r.Res.Mem.Kills
		}
	}
	events := tr.EventsSince(0)
	var kills int
	for i, e := range events {
		if e.Cat != "fleet" || e.Name != "oom-kill" || !ladder[poolTrack(e.Track)] {
			continue
		}
		kills++
		preceded := false
		for j := i - 1; j >= 0; j-- {
			if events[j].Cat == "hostmem" && events[j].Name == "rung:kill-request" &&
				events[j].Track == poolTrack(e.Track) {
				preceded = true
				break
			}
		}
		if !preceded {
			t.Errorf("oom-kill on %s has no preceding hostmem kill-request", e.Track)
		}
	}
	if kills != wantKills {
		t.Errorf("ladder oom-kill events %d, result kills %d", kills, wantKills)
	}
	if wantKills == 0 {
		t.Error("storm produced no ladder kills; the ordering assertion is vacuous")
	}
}

// TestChaosTelemetry: the supervisor's trace agrees with its report —
// one attempt span per attempt, and a flight dump per kernel panic and
// per crash-loop verdict.
func TestChaosTelemetry(t *testing.T) {
	t.Parallel()
	env := withTelemetry()
	tr := env.Trace
	results, err := chaosStorm.run(env)
	if err != nil {
		t.Fatalf("chaos: %v", err)
	}
	attempts := map[string]int{}
	for _, s := range tr.Spans() {
		if s.Cat == "vmm" && strings.HasPrefix(s.Name, "attempt ") {
			attempts[s.Track]++
		}
	}
	var wantPanics, wantLoops int
	for _, r := range results {
		track := "chaos/" + r.System
		if got := attempts[track]; got != len(r.Report.Attempts) {
			t.Errorf("%s: %d attempt spans, report has %d attempts", r.System, got, len(r.Report.Attempts))
		}
		for _, a := range r.Report.Attempts {
			if a.Outcome == vmm.OutcomePanic {
				wantPanics++
			}
		}
		if r.Report.CrashLoop {
			wantLoops++
		}
	}
	var panics, loops int
	for _, d := range tr.Dumps() {
		switch d.Reason {
		case "kernel-panic":
			panics++
		case "crash-loop":
			loops++
		}
	}
	if panics != wantPanics || wantPanics == 0 {
		t.Errorf("kernel-panic dumps %d, panic attempts %d (want equal, nonzero)", panics, wantPanics)
	}
	if loops != wantLoops {
		t.Errorf("crash-loop dumps %d, crash-loop reports %d", loops, wantLoops)
	}
}

// TestFleetChaosTelemetry: breaker transition events match the breakers'
// own transition records across every pool, and false-trip events the
// results' false trips.
func TestFleetChaosTelemetry(t *testing.T) {
	t.Parallel()
	env := withTelemetry()
	tr, reg := env.Trace, env.Metrics
	results, err := fleetChaosStorm.run(env)
	if err != nil {
		t.Fatalf("fleetchaos: %v", err)
	}
	var wantTransitions, wantFalseTrips int
	for _, r := range results {
		wantFalseTrips += r.Res.FalseTrips
		for _, b := range r.Backends {
			if br := b.Breaker(); br != nil {
				wantTransitions += len(br.Transitions)
			}
		}
	}
	var transitions, falseTrips int
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
	if transitions != wantTransitions || wantTransitions == 0 {
		t.Errorf("breaker transition events %d, recorded transitions %d (want equal, nonzero)", transitions, wantTransitions)
	}
	if falseTrips != wantFalseTrips {
		t.Errorf("false-trip events %d, results' false trips %d", falseTrips, wantFalseTrips)
	}
	// The lupine pool's counters exist and the served counter agrees.
	for _, r := range results {
		if r.System != "lupine" {
			continue
		}
		if got := reg.Counter("fleetchaos/lupine.served").Value(); got != int64(r.Res.OK) {
			t.Errorf("served counter %d, result OK %d", got, r.Res.OK)
		}
	}
}

// TestSurgeTelemetry: the snapshot plane's restore spans account for
// every provision — fallbacks exactly, clean restores at least as many
// as the launches the run admitted.
func TestSurgeTelemetry(t *testing.T) {
	t.Parallel()
	env := withTelemetry()
	tr := env.Trace
	results, err := surgeStorm.run(env)
	if err != nil {
		t.Fatalf("surge: %v", err)
	}
	restores := map[string]int{}
	fallbacks := map[string]int{}
	for _, s := range tr.Spans() {
		if s.Cat != "snapshot" {
			continue
		}
		switch s.Name {
		case "restore":
			restores[s.Track]++
		case "restore-fallback":
			fallbacks[s.Track]++
		}
	}
	var sawSnapshots bool
	for _, r := range results {
		if !r.Snapshots {
			continue
		}
		sawSnapshots = true
		track := "surge/" + r.System
		if got := fallbacks[track]; got != r.Fallbacks {
			t.Errorf("%s: %d fallback spans, result has %d fallbacks", r.System, got, r.Fallbacks)
		}
		// Provisions are scheduled before admission, so spans can lead the
		// admitted-restore count but never trail it.
		if got := restores[track]; got < r.Res.Restores {
			t.Errorf("%s: %d restore spans < %d admitted restores", r.System, got, r.Res.Restores)
		}
		if r.Res.Restores > 0 && restores[track] == 0 {
			t.Errorf("%s: restores happened but no restore span recorded", r.System)
		}
	}
	if !sawSnapshots {
		t.Fatal("no snapshot rows in surge results")
	}
}
