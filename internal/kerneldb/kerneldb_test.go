package kerneldb

import (
	"maps"
	"strings"
	"testing"

	"lupine/internal/kconfig"
)

func TestLoadTreeTotals(t *testing.T) {
	db := MustLoad()
	// Figure 3: 15,953 options in Linux 4.0.
	if got, want := db.Kconfig.Len(), 15953; got != want {
		t.Fatalf("total options = %d, want %d", got, want)
	}
	// microVM profile: 833 options; lupine-base keeps 283 (34%), removing
	// ~550 (66%).
	if got, want := len(db.MicroVMOptions()), 833; got != want {
		t.Errorf("microVM options = %d, want %d", got, want)
	}
	if got, want := len(db.LupineBaseOptions()), 283; got != want {
		t.Errorf("lupine-base options = %d, want %d", got, want)
	}
	if got, want := len(db.RemovedOptions()), 550; got != want {
		t.Errorf("removed options = %d, want %d", got, want)
	}
}

func TestFigure3Census(t *testing.T) {
	db := MustLoad()
	census := db.Figure3Census()
	// drivers dominates with roughly half the options, as in Figure 3.
	if census[0].Dir != "drivers" {
		t.Fatalf("largest dir = %s, want drivers", census[0].Dir)
	}
	if census[0].Total != 8243 {
		t.Errorf("drivers total = %d, want 8243", census[0].Total)
	}
	var total, microvm, base int
	byDir := make(map[string]DirCensus)
	for _, c := range census {
		total += c.Total
		microvm += c.MicroVM
		base += c.Base
		byDir[c.Dir] = c
	}
	if total != 15953 || microvm != 833 || base != 283 {
		t.Errorf("census sums = %d/%d/%d, want 15953/833/283", total, microvm, base)
	}
	// Spot-check directories named in the paper's discussion.
	if c := byDir["net"]; c.Total != 1100 || c.MicroVM != 250 || c.Base != 137 {
		t.Errorf("net census = %+v", c)
	}
	if c := byDir["drivers"]; c.MicroVM != 45 || c.Base != 5 {
		t.Errorf("drivers census = %+v", c)
	}
	// The microVM profile already drops almost all driver/arch options.
	if c := byDir["drivers"]; float64(c.MicroVM)/float64(c.Total) > 0.01 {
		t.Errorf("drivers microVM ratio too high: %+v", c)
	}
}

func TestFigure4Census(t *testing.T) {
	db := MustLoad()
	counts := make(map[Class]int)
	for _, c := range db.Figure4Census() {
		counts[c.Class] = c.Count
	}
	if counts[ClassBase] != 283 {
		t.Errorf("base = %d, want 283", counts[ClassBase])
	}
	appSpecific := counts[ClassAppNetwork] + counts[ClassAppFilesystem] +
		counts[ClassAppCrypto] + counts[ClassAppCompression] +
		counts[ClassAppDebug] + counts[ClassAppSyscall] + counts[ClassAppOther]
	// §3.1.1: ~311 application-specific options, including ~100 network,
	// 35 filesystem, 20 compression, 55 crypto, 65 debugging.
	if appSpecific != 311 {
		t.Errorf("app-specific = %d, want 311", appSpecific)
	}
	if counts[ClassAppNetwork] != 100 {
		t.Errorf("network = %d, want 100", counts[ClassAppNetwork])
	}
	if counts[ClassAppFilesystem] != 35 {
		t.Errorf("filesystem = %d, want 35", counts[ClassAppFilesystem])
	}
	if counts[ClassAppCompression] != 20 {
		t.Errorf("compression = %d, want 20", counts[ClassAppCompression])
	}
	if counts[ClassAppCrypto] != 55 {
		t.Errorf("crypto = %d, want 55", counts[ClassAppCrypto])
	}
	if counts[ClassAppDebug] != 65 {
		t.Errorf("debugging = %d, want 65", counts[ClassAppDebug])
	}
	// §3.1.2: 89 multi-process options (12 of them single-security-domain),
	// 150 hardware-management options.
	if counts[ClassMultiProc] != 89 {
		t.Errorf("multi-process = %d, want 89", counts[ClassMultiProc])
	}
	if counts[ClassHardware] != 150 {
		t.Errorf("hardware = %d, want 150", counts[ClassHardware])
	}
}

func TestProfilesResolveCleanly(t *testing.T) {
	db := MustLoad()
	micro, err := db.ResolveProfile(db.MicroVMRequest())
	if err != nil {
		t.Fatalf("microVM: %v", err)
	}
	if got := micro.Len(); got != 833 {
		t.Errorf("resolved microVM sets %d options, want 833", got)
	}
	base, err := db.ResolveProfile(db.LupineBaseRequest())
	if err != nil {
		t.Fatalf("lupine-base: %v", err)
	}
	if got := base.Len(); got != 283 {
		t.Errorf("resolved lupine-base sets %d options, want 283", got)
	}
	// lupine-base is a strict subset of microVM.
	for _, n := range base.Names() {
		if !micro.Enabled(n) {
			t.Errorf("lupine-base option %s not in microVM", n)
		}
	}
	// Key named options live where expected.
	for _, n := range []string{"PARAVIRT", "NET", "INET", "EXT2_FS", "VIRTIO_MMIO"} {
		if !base.Enabled(n) {
			t.Errorf("lupine-base missing %s", n)
		}
	}
	for _, n := range []string{"SMP", "SECCOMP", "FUTEX", "EPOLL", "PROC_FS"} {
		if base.Enabled(n) {
			t.Errorf("lupine-base unexpectedly contains %s", n)
		}
		if !micro.Enabled(n) {
			t.Errorf("microVM missing %s", n)
		}
	}
	// KML and KPTI are out-of-profile.
	for _, n := range []string{"KERNEL_MODE_LINUX", "PAGE_TABLE_ISOLATION", "PCI"} {
		if micro.Enabled(n) {
			t.Errorf("microVM unexpectedly contains %s", n)
		}
	}
}

func TestGeneralOptionsAtopBase(t *testing.T) {
	db := MustLoad()
	if got := len(GeneralOptions()); got != 19 {
		t.Fatalf("lupine-general adds %d options, want 19 (§4.1)", got)
	}
	req := db.LupineBaseRequest().Enable(GeneralOptions()...)
	cfg, err := db.ResolveProfile(req)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cfg.Len(), 283+19; got != want {
		t.Errorf("lupine-general sets %d options, want %d", got, want)
	}
	base, _ := db.ResolveProfile(db.LupineBaseRequest())
	d := cfg.DiffFrom(base)
	if len(d.Added) != 19 || len(d.Removed) != 0 {
		t.Errorf("diff from base = %+v", d)
	}
	// No general option is part of lupine-base.
	for _, n := range GeneralOptions() {
		if db.Class(n) == ClassBase {
			t.Errorf("general option %s classified as base", n)
		}
	}
}

func TestKMLConflictsWithParavirt(t *testing.T) {
	db := MustLoad()
	// Enabling KML while PARAVIRT stays on must not take effect (§4.3:
	// CONFIG_PARAVIRT conflicts with KML).
	req := db.LupineBaseRequest().Enable("KERNEL_MODE_LINUX")
	cfg, err := db.ResolveProfile(req)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Enabled("KERNEL_MODE_LINUX") {
		t.Error("KML enabled despite PARAVIRT")
	}
	// Dropping PARAVIRT lets KML in.
	req = db.LupineBaseRequest().Enable("KERNEL_MODE_LINUX").Set("PARAVIRT", kconfig.No)
	cfg, err = db.ResolveProfile(req)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Enabled("KERNEL_MODE_LINUX") || cfg.Enabled("PARAVIRT") {
		t.Errorf("KML/PARAVIRT exchange failed: KML=%v PARAVIRT=%v",
			cfg.Enabled("KERNEL_MODE_LINUX"), cfg.Enabled("PARAVIRT"))
	}
}

func TestTable1SyscallGating(t *testing.T) {
	db := MustLoad()
	opts := Table1Options()
	if len(opts) != 12 {
		t.Fatalf("Table 1 has %d options, want 12", len(opts))
	}
	// Exact rows from Table 1.
	wantRows := map[string][]string{
		"ADVISE_SYSCALLS": {"madvise", "fadvise64"},
		"AIO":             {"io_setup", "io_destroy", "io_submit", "io_cancel", "io_getevents"},
		"BPF_SYSCALL":     {"bpf"},
		"EPOLL":           {"epoll_ctl", "epoll_create", "epoll_wait", "epoll_pwait"},
		"EVENTFD":         {"eventfd", "eventfd2"},
		"FANOTIFY":        {"fanotify_init", "fanotify_mark"},
		"FHANDLE":         {"open_by_handle_at", "name_to_handle_at"},
		"FILE_LOCKING":    {"flock"},
		"FUTEX":           {"futex", "set_robust_list", "get_robust_list"},
		"INOTIFY_USER":    {"inotify_init", "inotify_add_watch", "inotify_rm_watch"},
		"SIGNALFD":        {"signalfd", "signalfd4"},
		"TIMERFD":         {"timerfd_create", "timerfd_gettime", "timerfd_settime"},
	}
	for opt, want := range wantRows {
		got := db.Info(opt).Syscalls
		if len(got) != len(want) {
			t.Errorf("%s gates %v, want %v", opt, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s gates %v, want %v", opt, got, want)
				break
			}
		}
		if db.Class(opt) != ClassAppSyscall {
			t.Errorf("%s class = %v, want app syscall", opt, db.Class(opt))
		}
	}
	// OptionForSyscall inverts the mapping.
	if got := db.OptionForSyscall("futex"); got != "FUTEX" {
		t.Errorf("OptionForSyscall(futex) = %q", got)
	}
	if got := db.OptionForSyscall("epoll_wait"); got != "EPOLL" {
		t.Errorf("OptionForSyscall(epoll_wait) = %q", got)
	}
	if got := db.OptionForSyscall("read"); got != "" {
		t.Errorf("OptionForSyscall(read) = %q, want unconditional", got)
	}
	// A redis kernel (EPOLL+FUTEX, no AIO/EVENTFD) must not expose
	// io_submit (§3.1.1's example).
	scs := db.SyscallsFor([]string{"EPOLL", "FUTEX"})
	joined := strings.Join(scs, ",")
	if !strings.Contains(joined, "epoll_wait") || !strings.Contains(joined, "futex") {
		t.Errorf("redis kernel syscalls missing: %v", scs)
	}
	if strings.Contains(joined, "io_submit") || strings.Contains(joined, "eventfd") {
		t.Errorf("redis kernel exposes nginx-only syscalls: %v", scs)
	}
}

// The gating table answers for every annotated system call with the
// option annotating it, and a call annotated on two options fails the
// build instead of letting lookups disagree on which of them gates it.
func TestGatingTable(t *testing.T) {
	db := MustLoad()
	gated := 0
	for _, o := range db.Kconfig.Options() {
		for _, sc := range db.Info(o.Name).Syscalls {
			gated++
			if got := db.OptionForSyscall(sc); got != o.Name {
				t.Errorf("OptionForSyscall(%s) = %q, want %s", sc, got, o.Name)
			}
		}
	}
	if gated != 68 {
		t.Errorf("%d gated system calls, want 68", gated)
	}

	opts := []*kconfig.Option{{Name: "A"}, {Name: "B"}}
	info := map[string]Info{"A": {Syscalls: []string{"flock", "futex"}}, "B": {Syscalls: []string{"futex"}}}
	if _, err := gatingTable(opts, info); err == nil || !strings.Contains(err.Error(), "futex is gated by both A and B") {
		t.Errorf("futex gated twice: err = %v", err)
	}
	info["B"] = Info{Syscalls: []string{"bpf"}}
	gates, err := gatingTable(opts, info)
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]string{"flock": "A", "futex": "A", "bpf": "B"}; !maps.Equal(gates, want) {
		t.Errorf("gates = %v, want %v", gates, want)
	}
}

// The profile lists are computed once per tree: each call copies one,
// and the caller owns the copy.
func TestProfileListsAreCopies(t *testing.T) {
	db := MustLoad()
	for name, list := range map[string]func() []string{
		"LupineBaseOptions": db.LupineBaseOptions,
		"MicroVMOptions":    db.MicroVMOptions,
		"RemovedOptions":    db.RemovedOptions,
	} {
		if allocs := testing.AllocsPerRun(100, func() { list() }); allocs > 1 {
			t.Errorf("%s: %.0f allocations per call, want <= 1", name, allocs)
		}
		first := list()[0]
		list()[0] = "CHANGED"
		if got := list()[0]; got != first {
			t.Errorf("%s()[0] = %s after a caller changed its copy, want %s", name, got, first)
		}
	}
}

func TestTinyAndMitigationLists(t *testing.T) {
	db := MustLoad()
	if got := len(TinyDisables()); got != 9 {
		t.Errorf("tiny flips %d options, want 9", got)
	}
	for _, n := range TinyDisables() {
		if db.Class(n) != ClassBase {
			t.Errorf("tiny option %s class = %v, want base", n, db.Class(n))
		}
	}
	if got := len(MitigationOptions()); got != 12 {
		t.Errorf("mitigations = %d options, want 12", got)
	}
	for _, n := range MitigationOptions() {
		if db.Class(n) != ClassMultiProc {
			t.Errorf("mitigation %s class = %v, want multi-process", n, db.Class(n))
		}
		if db.Kconfig.Lookup(n).Dir != "security" {
			t.Errorf("mitigation %s dir = %s, want security", n, db.Kconfig.Lookup(n).Dir)
		}
	}
}

func TestAnnotationsComplete(t *testing.T) {
	db := MustLoad()
	for _, o := range db.Kconfig.Options() {
		info := db.Info(o.Name)
		if info.Size < 0 || info.Boot < 0 {
			t.Fatalf("%s has negative costs: %+v", o.Name, info)
		}
		if info.Class.InMicroVM() && info.Size == 0 {
			t.Errorf("%s in microVM with zero size", o.Name)
		}
	}
}

func TestLoadIsCached(t *testing.T) {
	a := MustLoad()
	b := MustLoad()
	if a != b {
		t.Error("Load not cached")
	}
}

// Minimize (savedefconfig) over the full tree: the minimal request for
// lupine-base drops exactly the default-y base options.
func TestMinimizeLupineBase(t *testing.T) {
	db := MustLoad()
	cfg, err := db.ResolveProfile(db.LupineBaseRequest())
	if err != nil {
		t.Fatal(err)
	}
	min, err := kconfig.Minimize(db.Kconfig, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(min.Names()); got >= cfg.Len() {
		t.Errorf("defconfig has %d symbols, config %d; defaults not elided", got, cfg.Len())
	}
	// Known default-y options must not appear in the defconfig.
	dropped := make(map[string]bool)
	for _, n := range min.Names() {
		dropped[n] = true
	}
	for _, n := range []string{"PRINTK", "MMU", "SLUB", "BLOCK", "BINFMT_ELF"} {
		if dropped[n] {
			t.Errorf("default-y option %s kept in defconfig", n)
		}
	}
	res, err := kconfig.Resolve(db.Kconfig, min)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Config.Equal(cfg) {
		t.Error("defconfig does not reproduce lupine-base")
	}
}

// The synthetic CVE corpus reproduces the §7-cited result: configuration
// specialization alone nullifies ~89% of kernel vulnerabilities for a
// lupine-base build.
func TestCVENullification(t *testing.T) {
	db := MustLoad()
	total := db.TotalCVEs()
	if total < 1300 || total > 1750 {
		t.Fatalf("corpus = %d CVEs, want ~1530", total)
	}
	base, err := db.ResolveProfile(db.LupineBaseRequest())
	if err != nil {
		t.Fatal(err)
	}
	nullified := db.NullifiedCVEs(base.Enabled)
	frac := float64(nullified) / float64(total)
	if frac < 0.85 || frac > 0.93 {
		t.Errorf("lupine-base nullifies %.0f%% of CVEs, want ~89%%", frac*100)
	}
	// microVM nullifies fewer (it enables more code), a full build none.
	micro, err := db.ResolveProfile(db.MicroVMRequest())
	if err != nil {
		t.Fatal(err)
	}
	microNull := db.NullifiedCVEs(micro.Enabled)
	if microNull >= nullified {
		t.Errorf("microVM nullifies %d >= lupine-base %d", microNull, nullified)
	}
	if got := db.NullifiedCVEs(func(string) bool { return true }); got != 0 {
		t.Errorf("allyes build nullified %d CVEs, want 0", got)
	}
	if got := db.NullifiedCVEs(func(string) bool { return false }); got != total {
		t.Errorf("allno build nullified %d, want %d", got, total)
	}
}

// The allocator choice group behaves like real Kconfig: SLUB by default,
// switchable to SLOB, never more than one member.
func TestAllocatorChoice(t *testing.T) {
	db := MustLoad()
	base, err := db.ResolveProfile(db.LupineBaseRequest())
	if err != nil {
		t.Fatal(err)
	}
	if !base.Enabled("SLUB") || base.Enabled("SLAB") || base.Enabled("SLOB") {
		t.Errorf("allocator selection wrong: SLUB=%v SLAB=%v SLOB=%v",
			base.Enabled("SLUB"), base.Enabled("SLAB"), base.Enabled("SLOB"))
	}
	// A SLOB kernel (embedded-style tiny build) drops SLUB.
	req := db.LupineBaseRequest().Set("SLUB", kconfig.No).Enable("SLOB")
	cfg, err := db.ResolveProfile(req)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Enabled("SLOB") || cfg.Enabled("SLUB") {
		t.Errorf("SLOB kernel = SLOB:%v SLUB:%v", cfg.Enabled("SLOB"), cfg.Enabled("SLUB"))
	}
}
