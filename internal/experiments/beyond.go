package experiments

import (
	"fmt"

	"lupine/internal/kbuild"
	"lupine/internal/metrics"
	"lupine/internal/perfbench"
)

func init() {
	register("fig12", "perf messaging: threads vs processes (KML/NOKML)", runFig12)
	register("sec5smp", "SMP support overhead on one CPU (sem_posix, futex, make -j)", runSMP)
}

func runFig12(*Env) (fmt.Stringer, error) {
	f := &metrics.Figure{
		Title:  "Figure 12: perf sched-messaging, total time per group count",
		XLabel: "groups (10 senders + 10 receivers each)",
		YLabel: "ms",
	}
	nokml, err := lupineImage("lupine-nokml", []string{"UNIX", "FUTEX"}, false, kbuild.O2)
	if err != nil {
		return nil, err
	}
	kml, err := lupineImage("lupine", []string{"UNIX", "FUTEX"}, true, kbuild.O2)
	if err != nil {
		return nil, err
	}
	type variant struct {
		label string
		img   *kbuild.Image
		mode  perfbench.Mode
	}
	variants := []variant{
		{"KML Thread", kml, perfbench.Threads},
		{"KML Process", kml, perfbench.Processes},
		{"NOKML Thread", nokml, perfbench.Threads},
		{"NOKML Process", nokml, perfbench.Processes},
	}
	for _, v := range variants {
		s := f.NewSeries(v.label)
		for _, groups := range []int{1, 2, 4, 8, 16} {
			d, err := perfbench.Messaging(v.img, groups, v.mode)
			if err != nil {
				return nil, fmt.Errorf("fig12 %s g=%d: %w", v.label, groups, err)
			}
			s.Add(float64(groups), d.Milliseconds())
		}
	}
	f.Notes = append(f.Notes,
		"paper: switching processes is not slower than switching threads (within ~3-4%); single-address-space adherence is unfounded on performance grounds (§5)")
	return f, nil
}

func runSMP(*Env) (fmt.Stringer, error) {
	t := &metrics.Table{
		Title:   "§5: CONFIG_SMP overhead on a single CPU",
		Columns: []string{"workload", "no-SMP", "SMP (1 cpu)", "overhead %", "SMP (2 cpus)"},
	}
	up, err := lupineImage("lupine-up", []string{"UNIX", "FUTEX"}, false, kbuild.O2)
	if err != nil {
		return nil, err
	}
	smp, err := lupineImage("lupine-smp", []string{"UNIX", "FUTEX", "SMP"}, false, kbuild.O2)
	if err != nil {
		return nil, err
	}
	type bench struct {
		name string
		run  func(img *kbuild.Image, vcpus int) (float64, error)
	}
	benches := []bench{
		{"sem_posix (128 workers)", func(img *kbuild.Image, vcpus int) (float64, error) {
			d, err := perfbench.SemPosix(img, 128, 20, vcpus)
			return d.Milliseconds(), err
		}},
		{"futex (128 workers)", func(img *kbuild.Image, vcpus int) (float64, error) {
			d, err := perfbench.FutexStress(img, 128, 20, vcpus)
			return d.Milliseconds(), err
		}},
		{"make -j (256 jobs)", func(img *kbuild.Image, vcpus int) (float64, error) {
			d, err := perfbench.MakeJ(img, 256, vcpus)
			return d.Milliseconds(), err
		}},
	}
	for _, b := range benches {
		upMS, err := b.run(up, 1)
		if err != nil {
			return nil, fmt.Errorf("%s (no-SMP): %w", b.name, err)
		}
		smpMS, err := b.run(smp, 1)
		if err != nil {
			return nil, fmt.Errorf("%s (SMP): %w", b.name, err)
		}
		smp2MS, err := b.run(smp, 2)
		if err != nil {
			return nil, fmt.Errorf("%s (SMP 2cpu): %w", b.name, err)
		}
		overhead := (smpMS/upMS - 1) * 100
		t.AddRow(b.name, fmt.Sprintf("%.2f ms", upMS), fmt.Sprintf("%.2f ms", smpMS),
			fmt.Sprintf("%.1f", overhead), fmt.Sprintf("%.2f ms", smp2MS))
	}
	t.Notes = append(t.Notes,
		"paper: sem_posix <=3%, futex <=8%, make <=3% overhead; SMP almost always outweighs the alternative (a 2-CPU build is ~2x faster)")
	return t, nil
}
