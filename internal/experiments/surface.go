package experiments

import (
	"fmt"

	"lupine/internal/kbuild"
	"lupine/internal/metrics"
)

func init() {
	register("sec-surface", "Attack-surface reduction through configuration (§7)", runSurface)
}

// runSurface quantifies the security side-effect of specialization the
// paper's related work measures (Kurmus et al.: 50-85% of the attack
// surface removable via configuration; Alharthi et al.: 89% of kernel
// CVEs nullified): resident kernel code and the syscall table both
// shrink with the configuration.
func runSurface(*Env) (fmt.Stringer, error) {
	t := &metrics.Table{
		Title:   "Attack surface by configuration",
		Columns: []string{"kernel", "options", "code MB", "code vs microVM", "gated syscalls exposed", "CVEs nullified"},
	}
	micro, err := microVMImage()
	if err != nil {
		return nil, err
	}
	base, err := lupineBaseImage()
	if err != nil {
		return nil, err
	}
	general, err := lupineGeneralImage(false)
	if err != nil {
		return nil, err
	}
	redis, err := lupineImage("lupine-redis", []string{
		"ADVISE_SYSCALLS", "EPOLL", "FILE_LOCKING", "FUTEX", "PROC_FS",
		"SIGNALFD", "SYSCTL", "TIMERFD", "TMPFS", "UNIX",
	}, false, kbuild.O2)
	if err != nil {
		return nil, err
	}

	// Every syscall gated by some option in the tree.
	gated := gatedSyscalls()
	exposed := func(img *kbuild.Image) int {
		n := 0
		for _, sc := range gated {
			if img.HasSyscall(sc) {
				n++
			}
		}
		return n
	}
	totalCVE := db().TotalCVEs()
	for _, img := range []*kbuild.Image{micro, general, redis, base} {
		nullified := db().NullifiedCVEs(img.Config.Enabled)
		t.AddRow(img.Name, img.Config.Len(), img.MegabytesMB(),
			fmt.Sprintf("%.0f%%", 100*float64(img.Size)/float64(micro.Size)),
			fmt.Sprintf("%d/%d", exposed(img), len(gated)),
			fmt.Sprintf("%d/%d (%.0f%%)", nullified, totalCVE, 100*float64(nullified)/float64(totalCVE)))
	}
	t.Notes = append(t.Notes,
		"paper §7: configuration specialization removes 50-85% of the kernel attack surface (Kurmus et al.) and nullifies 89% of 1530 studied CVEs (Alharthi et al.; synthetic corpus calibrated to that finding)",
		"lupine-base removes ~73% of microVM's resident code; only the base networking/timer syscalls remain of the gated set")
	return t, nil
}

// gatedSyscalls enumerates the syscalls controlled by configuration
// options, sorted.
func gatedSyscalls() []string {
	var out []string
	seen := make(map[string]bool)
	for _, o := range db().Kconfig.Options() {
		for _, sc := range db().Info(o.Name).Syscalls {
			if !seen[sc] {
				seen[sc] = true
				out = append(out, sc)
			}
		}
	}
	return out
}
