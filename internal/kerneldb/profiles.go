package kerneldb

import (
	"fmt"
	"slices"
	"sort"

	"lupine/internal/kconfig"
)

// MicroVMOptions returns every option in the Firecracker microVM profile
// (833 options), sorted.
func (db *DB) MicroVMOptions() []string { return slices.Clone(db.microVM) }

// LupineBaseOptions returns the 283 options retained in lupine-base,
// sorted.
func (db *DB) LupineBaseOptions() []string { return slices.Clone(db.base) }

// RemovedOptions returns the ~550 microVM options removed to form
// lupine-base, i.e. Figure 4's bottom three bars, sorted.
func (db *DB) RemovedOptions() []string { return slices.Clone(db.removed) }

// optionsWhere lists the options whose annotation satisfies pred, sorted.
func (db *DB) optionsWhere(pred func(Info) bool) []string {
	var out []string
	for _, o := range db.Kconfig.Options() {
		if pred(db.info[o.Name]) {
			out = append(out, o.Name)
		}
	}
	sort.Strings(out)
	return out
}

// MicroVMRequest builds the resolver request for the microVM profile.
func (db *DB) MicroVMRequest() *kconfig.Request {
	return kconfig.NewRequest().Enable(db.microVM...)
}

// LupineBaseRequest builds the resolver request for lupine-base.
func (db *DB) LupineBaseRequest() *kconfig.Request {
	return kconfig.NewRequest().Enable(db.base...)
}

// GeneralOptions is the union of application-specific options required by
// the top-20 Docker Hub applications: the 19 options that, added to
// lupine-base, form lupine-general (§4.1, Figure 5).
func GeneralOptions() []string {
	return []string{
		"ADVISE_SYSCALLS", "AIO", "EPOLL", "EVENTFD", "FILE_LOCKING",
		"FUTEX", "INOTIFY_USER", "IPV6", "KEYS", "MEMBARRIER",
		"PACKET", "POSIX_MQUEUE", "PROC_FS", "SIGNALFD", "SYSCTL",
		"SYSVIPC", "TIMERFD", "TMPFS", "UNIX",
	}
}

// Table1Options returns the 12 options of Table 1 that gate system calls,
// sorted by name.
func Table1Options() []string {
	return []string{
		"ADVISE_SYSCALLS", "AIO", "BPF_SYSCALL", "EPOLL", "EVENTFD",
		"FANOTIFY", "FHANDLE", "FILE_LOCKING", "FUTEX", "INOTIFY_USER",
		"SIGNALFD", "TIMERFD",
	}
}

// TinyDisables lists the 9 base options lupine-tiny flips for space over
// performance (§4, "-tiny"; e.g. CONFIG_BASE_FULL).
func TinyDisables() []string {
	return []string{
		"BASE_FULL", "BLK_DEV_BSG", "BUG", "DOUBLEFAULT", "ELF_CORE",
		"KALLSYMS", "PRINTK", "SLUB_DEBUG", "VM_EVENT_COUNTERS",
	}
}

// MitigationOptions lists the 12 security options removed because a
// unikernel has a single security domain (§3.1.2). The guest cost model
// charges their runtime overheads when enabled.
func MitigationOptions() []string {
	return []string{
		"AUDIT", "HARDENED_USERCOPY", "KEYS", "RANDOMIZE_BASE",
		"RETPOLINE", "SECCOMP", "SECCOMP_FILTER", "SECURITY",
		"SECURITY_SELINUX", "SLAB_FREELIST_RANDOM",
		"STACKPROTECTOR_STRONG", "STRICT_KERNEL_RWX",
	}
}

// DirCensus is one row of Figure 3: option counts for a source directory.
type DirCensus struct {
	Dir     string
	Total   int
	MicroVM int
	Base    int
}

// Figure3Census tallies options per source directory for the full tree,
// the microVM profile and lupine-base, ordered by descending total —
// the exact shape of Figure 3.
func (db *DB) Figure3Census() []DirCensus {
	byDir := make(map[string]*DirCensus)
	for _, o := range db.Kconfig.Options() {
		c := byDir[o.Dir]
		if c == nil {
			c = &DirCensus{Dir: o.Dir}
			byDir[o.Dir] = c
		}
		info := db.info[o.Name]
		c.Total++
		if info.Class.InMicroVM() {
			c.MicroVM++
		}
		if info.Class == ClassBase {
			c.Base++
		}
	}
	out := make([]DirCensus, 0, len(byDir))
	for _, c := range byDir {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Dir < out[j].Dir
	})
	return out
}

// ClassCensus is one slice of Figure 4's breakdown.
type ClassCensus struct {
	Class Class
	Count int
}

// Figure4Census tallies the microVM options by class: the base kept for
// lupine plus the removed application-specific / multi-process / hardware
// categories.
func (db *DB) Figure4Census() []ClassCensus {
	counts := make(map[Class]int)
	for _, o := range db.Kconfig.Options() {
		info := db.info[o.Name]
		if info.Class.InMicroVM() {
			counts[info.Class]++
		}
	}
	out := make([]ClassCensus, 0, len(counts))
	for _, c := range classOrder {
		if counts[c] > 0 {
			out = append(out, ClassCensus{Class: c, Count: counts[c]})
		}
	}
	return out
}

// SyscallsFor returns the system calls gated by the given options
// (Table 1 semantics): the syscall table a built kernel exposes is the
// union over its enabled options.
func (db *DB) SyscallsFor(options []string) []string {
	seen := make(map[string]bool)
	for _, name := range options {
		for _, sc := range db.info[name].Syscalls {
			seen[sc] = true
		}
	}
	out := make([]string, 0, len(seen))
	for sc := range seen {
		out = append(out, sc)
	}
	sort.Strings(out)
	return out
}

// OptionForSyscall finds which option gates the given system call, or ""
// if the call is unconditionally available.
func (db *DB) OptionForSyscall(syscall string) string { return db.gating[syscall] }

// ResolveProfile resolves a request against the tree and fails on
// warnings: profile configurations must be dependency-clean.
func (db *DB) ResolveProfile(req *kconfig.Request) (*kconfig.Config, error) {
	res, err := kconfig.Resolve(db.Kconfig, req)
	if err != nil {
		return nil, err
	}
	if len(res.Warnings) > 0 {
		return nil, fmt.Errorf("kerneldb: profile resolution produced warnings: %v", res.Warnings[0])
	}
	return res.Config, nil
}
