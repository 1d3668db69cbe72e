package perfbench

import (
	"testing"

	"lupine/internal/kbuild"
	"lupine/internal/kconfig"
	"lupine/internal/kerneldb"
)

func img(t *testing.T, name string, opts []string, kml bool) *kbuild.Image {
	t.Helper()
	db := kerneldb.MustLoad()
	req := db.LupineBaseRequest().Enable(opts...)
	if kml {
		req.Set("PARAVIRT", kconfig.No).Enable("KERNEL_MODE_LINUX")
	}
	cfg, err := db.ResolveProfile(req)
	if err != nil {
		t.Fatal(err)
	}
	im, err := kbuild.Build(db, name, cfg, kbuild.O2)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func TestMessagingScalesWithGroups(t *testing.T) {
	im := img(t, "msg", []string{"UNIX", "FUTEX"}, false)
	one, err := Messaging(im, 1, Processes)
	if err != nil {
		t.Fatal(err)
	}
	four, err := Messaging(im, 4, Processes)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(four) / float64(one); ratio < 3 || ratio > 5 {
		t.Errorf("4-group/1-group = %.2f, want ~4 (linear scaling)", ratio)
	}
}

func TestProcessesNotSlowerThanThreads(t *testing.T) {
	// §5/Figure 12: "switching processes is not slower than switching
	// threads" — the maximum observed penalty was ~3%.
	im := img(t, "msg", []string{"UNIX", "FUTEX"}, false)
	for _, groups := range []int{1, 4} {
		th, err := Messaging(im, groups, Threads)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := Messaging(im, groups, Processes)
		if err != nil {
			t.Fatal(err)
		}
		if penalty := float64(pr)/float64(th) - 1; penalty > 0.04 {
			t.Errorf("groups=%d: process penalty = %.1f%%, want <= ~3%%", groups, penalty*100)
		}
	}
}

func TestKMLFasterMessaging(t *testing.T) {
	nokml := img(t, "msg-nokml", []string{"UNIX", "FUTEX"}, false)
	kml := img(t, "msg-kml", []string{"UNIX", "FUTEX"}, true)
	a, err := Messaging(nokml, 2, Threads)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Messaging(kml, 2, Threads)
	if err != nil {
		t.Fatal(err)
	}
	if b >= a {
		t.Errorf("KML messaging %v not below NOKML %v", b, a)
	}
}

func TestFutexStressSMPOverhead(t *testing.T) {
	up := img(t, "up", []string{"FUTEX"}, false)
	smp := img(t, "smp", []string{"FUTEX", "SMP"}, false)
	base, err := FutexStress(up, 32, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := FutexStress(smp, 32, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	over := float64(loaded)/float64(base) - 1
	if over <= 0 || over > 0.10 {
		t.Errorf("futex SMP overhead = %.1f%%, want (0, 10]", over*100)
	}
	// SemPosix shares the machinery but should also carry overhead.
	sb, err := SemPosix(up, 32, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := SemPosix(smp, 32, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sl <= sb {
		t.Error("sem_posix shows no SMP overhead")
	}
}

func TestFutexNeedsConfig(t *testing.T) {
	bare := img(t, "bare", nil, false)
	if _, err := FutexStress(bare, 1, 1, 1); err == nil {
		t.Error("futex stress ran without CONFIG_FUTEX")
	}
}

func TestMakeJParallelSpeedup(t *testing.T) {
	smp := img(t, "smp", []string{"SMP"}, false)
	one, err := MakeJ(smp, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	two, err := MakeJ(smp, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	// §5: building with one processor takes almost twice as long as two.
	if r := float64(one) / float64(two); r < 1.7 || r > 2.3 {
		t.Errorf("2-cpu make speedup = %.2f, want ~2", r)
	}
}
