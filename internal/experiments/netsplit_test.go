package experiments

import (
	"strings"
	"testing"
)

// Two same-seed storms must render identically: every draw on the wire
// (partition windows, flap victims, retransmission jitter) comes from
// seeded streams on the virtual clock.
func TestNetSplitDeterministic(t *testing.T) {
	t.Parallel()
	a := runExp(t, "netsplit")
	b := runExp(t, "netsplit")
	if a.String() != b.String() {
		t.Fatalf("same seed, different tables:\n%s\n---\n%s", a, b)
	}
}

// The acceptance bar: Lupine multiprocess pools ride out an asymmetric
// partition + flap storm at ≥90%% availability with every crash
// recovered, under all three balancer policies; the unikernel
// comparator pools lose everything before the partition even lands.
func TestNetSplitContrast(t *testing.T) {
	t.Parallel()
	results, err := netsplitStorm.run(newEnv())
	if err != nil {
		t.Fatal(err)
	}
	byRow := map[string]netsplitResult{}
	mpWorst := 1.0
	for _, r := range results {
		byRow[r.System+"/"+r.Policy] = r
		res := r.Res
		if got := res.OK + res.Shed + res.Failed; got != res.Total {
			t.Errorf("%s/%s: conservation broken: OK %d + Shed %d + Failed %d != Total %d",
				r.System, r.Policy, res.OK, res.Shed, res.Failed, res.Total)
		}
		if r.System == "lupine+mp" {
			if av := res.Availability(); av < 0.90 {
				t.Errorf("lupine+mp/%s: availability %.3f < 0.90 under the split storm", r.Policy, av)
			} else if av < mpWorst {
				mpWorst = av
			}
			if !r.Recovered {
				t.Errorf("lupine+mp/%s: unrecovered crash in the pool", r.Policy)
			}
		}
	}
	for _, policy := range []string{"rr", "least", "hash"} {
		if _, ok := byRow["lupine+mp/"+policy]; !ok {
			t.Fatalf("missing lupine+mp/%s row", policy)
		}
	}

	// The partition hits live backends: at least one breaker open in the
	// mp rows must be a false trip, and the wire must have forced
	// retransmissions.
	mpRR := byRow["lupine+mp/rr"]
	if mpRR.Res.FalseTrips == 0 {
		t.Error("lupine+mp/rr: no false breaker trips — the asymmetric partition should open breakers against live VMs")
	}
	if mpRR.Res.Retransmits == 0 {
		t.Error("lupine+mp/rr: no retransmissions — loss and partition weather should force re-sends")
	}
	if mpRR.Net.Dropped == 0 {
		t.Error("lupine+mp/rr: fabric reports zero dropped segments during a partition storm")
	}

	// Plain lupine panics on the spike but the supervisor recovers it.
	lupine := byRow["lupine/rr"]
	if !lupine.Recovered {
		t.Error("lupine/rr: supervisor should have recovered the panicking backends")
	}
	if lupine.Res.Restarts == 0 {
		t.Error("lupine/rr: expected supervisor restarts from the memory spike without MULTIPROCESS")
	}

	// Comparator pools: dead before the partition, shedding at the wire,
	// and marked unrecovered.
	for _, name := range []string{"hermitux", "osv-zfs", "rump"} {
		r, ok := byRow[name+"/rr"]
		if !ok {
			t.Fatalf("missing %s comparator row", name)
		}
		if r.Recovered {
			t.Errorf("%s: comparator pool cannot recover from its fork crash", name)
		}
		if av := r.Res.Availability(); av >= mpWorst {
			t.Errorf("%s availability %.3f should be below worst lupine+mp %.3f", name, av, mpWorst)
		}
		if r.Res.Shed == 0 {
			t.Errorf("%s: dead pool should shed at the wire", name)
		}
	}
}

// The storm's telemetry must carry the wire history: per-connection
// spans with outcomes and per-retransmission instants, so a flight
// recorder dump shows the pre-trip retransmission storm.
func TestNetSplitTraceHasWireHistory(t *testing.T) {
	t.Parallel()
	env := withTelemetry()
	tr := env.Trace
	if _, err := netsplitStorm.run(env); err != nil {
		t.Fatal(err)
	}
	var conns, rexmits, trips int
	for _, s := range tr.Spans() {
		if s.Name == "conn" && strings.HasPrefix(s.Track, "netsplit/") {
			conns++
		}
	}
	for _, e := range tr.EventsSince(0) {
		if !strings.HasPrefix(e.Track, "netsplit/") {
			continue
		}
		switch e.Name {
		case "rexmit":
			rexmits++
		case "breaker:false-trip":
			trips++
		}
	}
	if conns == 0 {
		t.Error("no per-connection spans on netsplit tracks")
	}
	if rexmits == 0 {
		t.Error("no per-retransmission instants on netsplit tracks")
	}
	if trips == 0 {
		t.Error("no false-trip events on netsplit tracks")
	}
}

func BenchmarkNetSplit(b *testing.B) { benchHeadline(b, "netsplit") }
