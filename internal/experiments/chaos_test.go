package experiments

import (
	"strings"
	"testing"

	"lupine/internal/apps"
	"lupine/internal/core"
	"lupine/internal/vmm"
)

// TestChaosDeterministic runs the full storm twice and requires
// bit-identical rendered output — the contract that makes chaos failures
// replayable from just a seed.
func TestChaosDeterministic(t *testing.T) {
	t.Parallel()
	e, err := Lookup("chaos")
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
		t.Errorf("chaos output differs between identical seeded runs:\n--- first\n%s\n--- second\n%s",
			first.String(), second.String())
	}
}

// TestChaosRecoveryContrast is the experiment's acceptance criterion:
// under the identical storm, the MULTIPROCESS Lupine recovers within the
// restart budget while at least one libos comparator reports an
// unrecovered crash.
func TestChaosRecoveryContrast(t *testing.T) {
	t.Parallel()
	results, err := chaosStorm.run(newEnv())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]chaosResult{}
	for _, r := range results {
		byName[r.System] = r
	}

	mp, ok := byName["lupine+mp"]
	if !ok {
		t.Fatal("no lupine+mp row")
	}
	if !mp.Report.Recovered {
		t.Errorf("lupine+mp did not recover: %+v", mp.Report)
	}
	if got, budget := mp.Report.Restarts(), chaosPolicy().MaxRestarts; got > budget {
		t.Errorf("lupine+mp used %d restarts, budget %d", got, budget)
	}
	if !mp.MultiProc {
		t.Error("lupine+mp image does not enable MULTIPROCESS")
	}
	// The spike is absorbed, not fatal: no attempt of the MP run panics
	// over the OOM spike.
	for i, a := range mp.Report.Attempts {
		if a.Outcome == vmm.OutcomePanic && strings.Contains(a.Detail, "Out of memory") {
			t.Errorf("lupine+mp attempt %d died of the memory spike: %q", i+1, a.Detail)
		}
	}

	// The same storm panics the OOM-killer-less kernel — config causality.
	base, ok := byName["lupine"]
	if !ok {
		t.Fatal("no lupine row")
	}
	sawOOMPanic := false
	for _, a := range base.Report.Attempts {
		if a.Outcome == vmm.OutcomePanic && strings.Contains(a.Detail, "no OOM killer") {
			sawOOMPanic = true
		}
	}
	if !sawOOMPanic {
		t.Error("lupine (no MULTIPROCESS) never panicked on the memory spike")
	}
	if !base.Report.Recovered {
		t.Error("lupine should still recover via the supervisor's extra restart")
	}
	if base.Report.Restarts() <= mp.Report.Restarts() {
		t.Errorf("lupine restarts (%d) should exceed lupine+mp restarts (%d)",
			base.Report.Restarts(), mp.Report.Restarts())
	}

	unrecovered := 0
	for _, name := range []string{"hermitux", "osv-zfs", "rump"} {
		r, ok := byName[name]
		if !ok {
			t.Fatalf("no %s row", name)
		}
		if !r.Report.Recovered && !r.Report.CrashLoop {
			unrecovered++
		}
	}
	if unrecovered == 0 {
		t.Error("no libos comparator reported an unrecovered crash")
	}

	// Availability must favor the MP kernel over its panic-prone twin.
	if mp.Report.Availability() <= base.Report.Availability() {
		t.Errorf("lupine+mp availability %.3f not above lupine %.3f",
			mp.Report.Availability(), base.Report.Availability())
	}
}

// Supervising a pool boots copies of the storm's unikernel: u still
// runs redis afterwards, not the chaos workload its lifetimes ran.
func TestSupervisedPoolLeavesUnikernelAlone(t *testing.T) {
	t.Parallel()
	u, err := redis("lupine+mp")
	if err != nil {
		t.Fatal(err)
	}
	a, err := apps.Lookup("redis")
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		if ok, console, err := u.RunAndCheck(core.BootOpts{}, a.SuccessText); err != nil || !ok {
			t.Fatalf("%s supervising a pool: redis did not come up (err %v); console:\n%s", when, err, console)
		}
	}
	check("before")
	if _, err := newEnv().linuxPool(u, "pool", netsplitBackendPlan); err != nil {
		t.Fatal(err)
	}
	check("after")
}

// BenchmarkChaosRecovery runs the whole storm as the repeatable
// robustness benchmark; the reported metric is unavailability (fraction
// of the storm the flagship MP configuration spent down).
func BenchmarkChaosRecovery(b *testing.B) {
	var sink string
	for i := 0; i < b.N; i++ {
		results, err := chaosStorm.run(newEnv())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.System == "lupine+mp" {
				b.ReportMetric((1-r.Report.Availability())*100, "%downtime")
			}
		}
		out := runExp(b, "chaos")
		if sink == "" {
			sink = out.String()
		} else if sink != out.String() {
			b.Fatal("chaos output not deterministic across benchmark iterations")
		}
	}
}
