package experiments

import (
	"reflect"
	"testing"

	"lupine/internal/attack"
)

// rowByName indexes a storm result.
func rowByName(t *testing.T, rows []breachRow, name string) breachRow {
	t.Helper()
	for _, r := range rows {
		if r.System == name {
			return r
		}
	}
	t.Fatalf("no row %q in storm", name)
	return breachRow{}
}

// TestBreachGradient is the experiment's acceptance story: the same
// seeded campaign against every row, and the outcome ordered by build.
// Specialization deflects, hardening discounts, the ladder contains;
// ring 0 amplifies; the comparators never recover.
func TestBreachGradient(t *testing.T) {
	t.Parallel()
	rows, err := breachStorm.run(newEnv())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 5 {
		t.Fatalf("storm produced %d rows", len(rows))
	}

	off := rowByName(t, rows, "lupine+mp")
	full := rowByName(t, rows, "lupine+mp+full")
	kml := rowByName(t, rows, "lupine+kml")

	// Table-1 gating: the specialized kernels bounce probes against
	// dropped syscalls; the libos single domain bounces none.
	if off.Res.Attack.Deflected == 0 || full.Res.Attack.Deflected == 0 {
		t.Fatalf("specialized kernels deflected nothing: off %+v full %+v",
			off.Res.Attack, full.Res.Attack)
	}

	// The hardening discount: priced mitigations mean strictly fewer
	// compromises for strictly more boot time.
	if full.Res.Attack.Compromised >= off.Res.Attack.Compromised {
		t.Fatalf("hardening bought nothing: off %d compromised, full %d",
			off.Res.Attack.Compromised, full.Res.Attack.Compromised)
	}
	if full.Boot <= off.Boot {
		t.Fatalf("hardening must cost boot time: off %v, full %v", off.Boot, full.Boot)
	}

	// The issue's headline number: the hardened pool contains >= 90% of
	// its compromises with availability >= 90%.
	if c := full.Res.Containment(); c < 0.9 {
		t.Fatalf("hardened containment %.2f, want >= 0.9: %+v", c, full.Res.Breach)
	}
	if av := full.Res.Availability(); av < 0.9 {
		t.Fatalf("hardened availability %.3f, want >= 0.9", av)
	}

	// Ring 0 is the blast-radius knob: the same unhardened build with
	// KML escalates past the guest boundary and forces region evacuation
	// — the one row where containment loses to the campaign.
	if kml.Res.Attack.ByEscalation == 0 || kml.Res.Breach.RegionEvacs == 0 {
		t.Fatalf("KML blast radius never showed: attack %+v breach %+v",
			kml.Res.Attack, kml.Res.Breach)
	}
	if off.Res.Attack.ByEscalation != 0 || off.Res.Breach.RegionEvacs != 0 {
		t.Fatalf("ring-3 row escalated: %+v %+v", off.Res.Attack, off.Res.Breach)
	}

	// The comparators: everything exposed, nothing deflected, and with no
	// snapshot lineage nothing ever repaved — compromises are caged at
	// best, never replaced.
	libosRows := 0
	for _, r := range rows {
		if r.Hardening != "-" {
			continue
		}
		libosRows++
		a, b := r.Res.Attack, r.Res.Breach
		if a.Deflected != 0 {
			t.Fatalf("%s: single protection domain deflected %d probes", r.System, a.Deflected)
		}
		if a.Compromised == 0 {
			t.Fatalf("%s: campaign never landed: %+v", r.System, a)
		}
		if b.Repaved != 0 || b.RepaveDenied == 0 {
			t.Fatalf("%s: lineage-less repave must be denied: %+v", r.System, b)
		}
		if b.Contained != 0 || r.Res.Containment() != 0 {
			t.Fatalf("%s: comparator counted as contained: %+v", r.System, b)
		}
		if b.IsolatedOnly+b.StillServing != a.Compromised {
			t.Fatalf("%s: unrecovered ledger doesn't cover the compromises: %+v vs %+v",
				r.System, b, a)
		}
	}
	if libosRows == 0 {
		t.Fatal("no libos comparator rows in storm")
	}
}

// TestBreachDeterminism: the whole sweep — builds, snapshots, campaign,
// containment — replays bit-for-bit on the same seed.
func TestBreachDeterminism(t *testing.T) {
	t.Parallel()
	a, err := breachStorm.run(newEnv())
	if err != nil {
		t.Fatal(err)
	}
	b, err := breachStorm.run(newEnv())
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("row counts diverged: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].System != b[i].System || a[i].Boot != b[i].Boot ||
			!reflect.DeepEqual(a[i].Res.Attack, b[i].Res.Attack) ||
			!reflect.DeepEqual(a[i].Res.Breach, b[i].Res.Breach) ||
			a[i].Res.Events != b[i].Res.Events || a[i].Res.OK != b[i].Res.OK {
			t.Fatalf("row %s diverged across identical runs", a[i].System)
		}
	}
}

// TestBreachRuntimeScale: the hardening data-path price really lands in
// the row's fleet config.
func TestBreachRuntimeScale(t *testing.T) {
	t.Parallel()
	if attack.RuntimeScale(attack.HardeningFull) <= attack.RuntimeScale(attack.HardeningOff) {
		t.Fatal("full hardening must scale service time up")
	}
}

func BenchmarkBreach(b *testing.B) { benchHeadline(b, "breach") }
