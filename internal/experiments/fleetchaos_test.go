package experiments

import (
	"testing"
)

// TestFleetChaosDeterministic runs the whole fleet comparison twice and
// requires bit-identical rendered output — same seed, same storms, same
// table, byte for byte.
func TestFleetChaosDeterministic(t *testing.T) {
	t.Parallel()
	e, err := Lookup("fleetchaos")
	if err != nil {
		t.Fatal(err)
	}
	first, err := e.Run(newEnv())
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Run(newEnv())
	if err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Errorf("fleetchaos output differs between identical seeded runs:\n--- first\n%s\n--- second\n%s",
			first.String(), second.String())
	}
}

// TestFleetChaosContrast is the experiment's acceptance criterion: under
// identical storms and front-end weather, the MULTIPROCESS Lupine pool
// out-serves every unikernel comparator pool, the rolling upgrade
// completes without the active count ever dipping below the pool size,
// and shed/latency accounting is conserved.
func TestFleetChaosContrast(t *testing.T) {
	t.Parallel()
	results, err := fleetChaosStorm.run(newEnv())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]fleetChaosResult{}
	for _, r := range results {
		byName[r.System] = r
		if got := r.Res.OK + r.Res.Shed + r.Res.Failed; got != r.Res.Total {
			t.Errorf("%s: request conservation broken: %d resolved of %d offered", r.System, got, r.Res.Total)
		}
	}

	mp, ok := byName["lupine+mp"]
	if !ok {
		t.Fatal("no lupine+mp row")
	}
	if !mp.MultiProc {
		t.Error("lupine+mp image does not enable MULTIPROCESS")
	}
	if avail := mp.Res.Availability(); avail < 0.9 {
		t.Errorf("lupine+mp fleet availability %.3f, want >= 0.9: a degrading pool should stay serving", avail)
	}
	if mp.Res.MinActive < fleetPoolSize {
		t.Errorf("lupine+mp active backends dipped to %d during the rollout, want >= %d by construction",
			mp.Res.MinActive, fleetPoolSize)
	}
	if !mp.Upgraded || mp.Rebuilds != 1 || mp.Shared != fleetPoolSize-1 {
		t.Errorf("lupine+mp upgrade: upgraded=%v builds=%d shared=%d, want 1 build and %d cache-shared rebuilds",
			mp.Upgraded, mp.Rebuilds, mp.Shared, fleetPoolSize-1)
	}
	if p50, p99 := mp.Res.Percentile(50), mp.Res.Percentile(99); p50 <= 0 || p99 < p50 {
		t.Errorf("implausible lupine+mp latency percentiles p50=%v p99=%v", p50, p99)
	}

	// The unikernel comparator pools crash on the workload's first fork
	// with no restart story: the balancer must shed nearly everything,
	// and the MP pool must beat every one of them on availability.
	for _, name := range []string{"hermitux", "osv-zfs", "rump"} {
		r, ok := byName[name]
		if !ok {
			t.Fatalf("no %s row", name)
		}
		if r.Res.Availability() >= mp.Res.Availability() {
			t.Errorf("%s fleet availability %.3f not below lupine+mp %.3f",
				name, r.Res.Availability(), mp.Res.Availability())
		}
		if r.Res.ShedRate() == 0 {
			t.Errorf("%s: dead pool never shed load", name)
		}
	}

	// Breakers and retries must actually engage on the panic-prone base
	// kernel: its pool takes staggered outages the front-end routes around.
	base, ok := byName["lupine"]
	if !ok {
		t.Fatal("no lupine row")
	}
	if base.Res.BreakerOpens == 0 {
		t.Error("lupine pool: staggered panics never tripped a breaker")
	}
	if base.Res.Restarts == 0 {
		t.Error("lupine pool: supervisors report zero restarts under the storm")
	}
	if mp.Res.Availability() < base.Res.Availability() {
		t.Errorf("lupine+mp fleet availability %.3f below lupine %.3f",
			mp.Res.Availability(), base.Res.Availability())
	}
}

// BenchmarkFleetChaos runs the full fleet comparison as the repeatable
// resilience benchmark; reported metrics are the flagship MP pool's
// unavailability, shed rate, and p99 virtual latency.
func BenchmarkFleetChaos(b *testing.B) {
	var sink string
	for i := 0; i < b.N; i++ {
		results, err := fleetChaosStorm.run(newEnv())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.System == "lupine+mp" {
				b.ReportMetric((1-r.Res.Availability())*100, "%unavail")
				b.ReportMetric(r.Res.ShedRate()*100, "%shed")
				b.ReportMetric(r.Res.Percentile(99).Microseconds(), "p99-µs")
			}
		}
		out := runExp(b, "fleetchaos")
		if sink == "" {
			sink = out.String()
		} else if sink != out.String() {
			b.Fatal("fleetchaos output not deterministic across benchmark iterations")
		}
	}
}
