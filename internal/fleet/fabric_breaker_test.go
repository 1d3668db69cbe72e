package fleet

import (
	"fmt"
	"testing"

	"lupine/internal/fabric"
	"lupine/internal/faults"
	"lupine/internal/simclock"
)

// Breaker behavior through the fabric: these tests cut the wire, not
// the backend. A one-sided partition into backend "a" (node 2 — the
// balancer is node 1) eats the balancer's SYNs, probes and requests
// while a's own egress still flows, so every breaker verdict below is
// the wire lying about a live VM.

// partitionedFleet builds a two-backend pool with a partition INTO "a"
// over [from, to), health checking effectively disabled (ProbeFailAfter
// out of reach) so the breaker — not the health view — is the only
// thing standing between the balancer and the partitioned backend.
func partitionedFleet(t *testing.T, from, to simclock.Time) *Fleet {
	t.Helper()
	cfg := DefaultConfig()
	cfg.ProbeFailAfter = 1 << 20
	inj, err := faults.New(faults.Plan{
		Seed: 7,
		Rules: []faults.Rule{
			{Site: fabric.SitePartition, From: from, To: to, Prob: 1, Param: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return New(cfg, []*Backend{
		NewBackend("a", AlwaysUp()),
		NewBackend("b", AlwaysUp()),
	}, nil, inj)
}

// TestOneSidedPartitionOpensBreaker: during the partition the breaker
// must open off dispatch timeouts (counted as a false trip — the VM is
// alive), and while it cycles through half-open trials the lost probes
// must re-open it with a "probe failed" verdict. After heal, the
// half-open window must close again and the backend must serve.
func TestOneSidedPartitionOpensBreaker(t *testing.T) {
	const ms10 = simclock.Time(10 * simclock.Millisecond)
	const ms45 = simclock.Time(45 * simclock.Millisecond)
	f := partitionedFleet(t, ms10, ms45)
	res := f.Run()
	checkConservation(t, f, res)

	a := f.Backends()[0]
	tr := a.Breaker().Transitions
	if len(tr) == 0 {
		t.Fatal("partition into a live backend produced no breaker transitions")
	}
	var opens, probeFails int
	for _, x := range tr {
		if x.To != BreakerOpen {
			continue
		}
		opens++
		if x.At < ms10 || x.At >= ms45+ms10 {
			t.Errorf("breaker opened at %v, outside the partition window [%v, %v)", x.At, ms10, ms45)
		}
		if x.Cause == "probe failed" {
			probeFails++
		}
	}
	if opens == 0 {
		t.Error("breaker never opened during the one-sided partition")
	}
	if probeFails == 0 {
		t.Error("no half-open trial was doomed by a lost probe ('probe failed' cause)")
	}
	if res.FalseTrips == 0 {
		t.Error("opening against a live backend must count as a false trip")
	}
	if res.FalseTrips > res.BreakerOpens {
		t.Errorf("false trips %d > breaker opens %d", res.FalseTrips, res.BreakerOpens)
	}

	// Heal: the last transition must be the half-open window closing, and
	// the healed backend must have served traffic on both sides of the
	// partition.
	last := tr[len(tr)-1]
	if last.To != BreakerClosed {
		t.Errorf("final breaker state %v, want closed after heal (transitions: %v)", last.To, tr)
	}
	if last.At < ms45 {
		t.Errorf("breaker closed at %v, before the partition healed at %v", last.At, ms45)
	}
	if a.Breaker().State() != BreakerClosed {
		t.Errorf("post-run breaker state %v, want closed", a.Breaker().State())
	}
	if a.Served() == 0 {
		t.Error("partitioned backend never served despite being alive and healed")
	}
}

// TestPartitionBreakerCycleDeterministic: the full transition timeline
// of the partition-open-probe-doom-heal-close cycle replays bit-for-bit
// under a fixed seed — timestamps, causes and order included.
func TestPartitionBreakerCycleDeterministic(t *testing.T) {
	run := func() (string, Result) {
		const from = simclock.Time(10 * simclock.Millisecond)
		const to = simclock.Time(45 * simclock.Millisecond)
		f := partitionedFleet(t, from, to)
		res := f.Run()
		checkConservation(t, f, res)
		var s string
		for _, b := range f.Backends() {
			s += b.Name + ":" + fmt.Sprint(b.Breaker().Transitions) + "\n"
		}
		return s, res
	}
	s1, r1 := run()
	s2, r2 := run()
	if s1 != s2 {
		t.Errorf("same seed, different breaker timelines:\n%s---\n%s", s1, s2)
	}
	if fmt.Sprintf("%+v", r1) != fmt.Sprintf("%+v", r2) {
		t.Error("same seed, different results")
	}
}
