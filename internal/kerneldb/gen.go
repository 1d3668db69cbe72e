package kerneldb

import (
	"fmt"
	"strings"

	"lupine/internal/kconfig"
)

// dirAlloc fixes, for one source directory, the total number of options in
// the tree (Figure 3) and the number of options per class selected by the
// Firecracker microVM profile (Figures 3 and 4). Quotas include the named
// options declared in named.go; gen fills the remainder with synthetic
// options.
type dirAlloc struct {
	dir     string
	total   int
	classes map[Class]int
}

// allocTable encodes the paper's census:
//   - per-directory totals sum to 15,953 (Linux 4.0, Figure 3);
//   - microVM class quotas sum to 833 = 283 lupine-base + 550 removed;
//   - removed options split 311 application-specific, 89 multi-process,
//     150 hardware management (Figure 4).
var allocTable = []dirAlloc{
	{"drivers", 8243, map[Class]int{ClassBase: 5, ClassHardware: 40}},
	{"arch", 3200, map[Class]int{ClassBase: 10, ClassMultiProc: 10, ClassHardware: 75}},
	{"sound", 900, map[Class]int{}},
	{"net", 1100, map[Class]int{ClassBase: 137, ClassAppNetwork: 100, ClassMultiProc: 13}},
	{"fs", 700, map[Class]int{ClassBase: 62, ClassAppFilesystem: 35, ClassAppOther: 14, ClassMultiProc: 9}},
	{"lib", 350, map[Class]int{ClassBase: 25, ClassAppCompression: 20, ClassAppDebug: 15}},
	{"kernel", 400, map[Class]int{ClassBase: 13, ClassAppDebug: 45, ClassAppSyscall: 12, ClassMultiProc: 30, ClassHardware: 15}},
	{"init", 60, map[Class]int{ClassBase: 8, ClassAppDebug: 5, ClassAppOther: 5, ClassMultiProc: 7}},
	{"crypto", 400, map[Class]int{ClassBase: 5, ClassAppCrypto: 55}},
	{"mm", 130, map[Class]int{ClassBase: 7, ClassAppOther: 3, ClassMultiProc: 5, ClassHardware: 10}},
	{"security", 160, map[Class]int{ClassBase: 3, ClassMultiProc: 12}},
	{"block", 90, map[Class]int{ClassBase: 4, ClassAppOther: 2, ClassHardware: 4}},
	{"virt", 25, map[Class]int{ClassBase: 3}},
	{"samples", 150, map[Class]int{}},
	{"usr", 45, map[Class]int{ClassBase: 1, ClassMultiProc: 3, ClassHardware: 6}},
}

// classTag names synthetic options so the class is visible in .config
// diffs during debugging.
func classTag(c Class) string {
	switch c {
	case ClassBase:
		return "BASE"
	case ClassAppNetwork:
		return "NETPROTO"
	case ClassAppFilesystem:
		return "FSOPT"
	case ClassAppCrypto:
		return "CRYPTOALG"
	case ClassAppCompression:
		return "COMPR"
	case ClassAppDebug:
		return "DEBUGOPT"
	case ClassAppSyscall:
		return "SYSCALLOPT"
	case ClassAppOther:
		return "SVCOPT"
	case ClassMultiProc:
		return "MPROC"
	case ClassHardware:
		return "HWMGMT"
	default:
		return "EXTRA"
	}
}

// classOrder fixes a deterministic iteration order over class quotas.
var classOrder = []Class{
	ClassBase, ClassAppNetwork, ClassAppFilesystem, ClassAppCrypto,
	ClassAppCompression, ClassAppDebug, ClassAppSyscall, ClassAppOther,
	ClassMultiProc, ClassHardware,
}

// generateSynthetic tops up every (directory, class) bucket to its quota
// and every directory to its Figure 3 total with synthetic options.
func generateSynthetic(db *DB) error {
	// Census of the named options already in the tree.
	namedByDirClass := make(map[string]map[Class]int)
	namedByDir := make(map[string]int)
	for _, o := range db.Kconfig.Options() {
		info, ok := db.info[o.Name]
		if !ok {
			return fmt.Errorf("kerneldb: option %s missing annotation during generation", o.Name)
		}
		if namedByDirClass[o.Dir] == nil {
			namedByDirClass[o.Dir] = make(map[Class]int)
		}
		namedByDirClass[o.Dir][info.Class]++
		namedByDir[o.Dir]++
	}

	for _, alloc := range allocTable {
		selected := 0
		for _, c := range classOrder {
			quota := alloc.classes[c]
			selected += quota
			have := namedByDirClass[alloc.dir][c]
			if have > quota {
				return fmt.Errorf("kerneldb: %s has %d named %v options, quota %d", alloc.dir, have, c, quota)
			}
			for i := have; i < quota; i++ {
				name := fmt.Sprintf("%s_%s_%04d", strings.ToUpper(alloc.dir), classTag(c), i)
				addSynthetic(db, alloc.dir, name, c)
			}
		}
		// Fill the directory to its Figure 3 total with unselected options.
		namedUnselected := namedByDirClass[alloc.dir][ClassUnselected]
		used := selected + namedUnselected
		if used > alloc.total {
			return fmt.Errorf("kerneldb: %s uses %d options, total quota %d", alloc.dir, used, alloc.total)
		}
		for i := 0; i < alloc.total-used; i++ {
			name := fmt.Sprintf("%s_%s_%04d", strings.ToUpper(alloc.dir), classTag(ClassUnselected), i)
			addSynthetic(db, alloc.dir, name, ClassUnselected)
		}
	}

	// Reject named options in directories the table doesn't know about:
	// they would silently escape the census.
	known := make(map[string]bool, len(allocTable))
	for _, a := range allocTable {
		known[a.dir] = true
	}
	for dir := range namedByDir {
		if !known[dir] {
			return fmt.Errorf("kerneldb: named options declared in unknown directory %q", dir)
		}
	}
	return nil
}

func addSynthetic(db *DB, dir, name string, c Class) {
	db.Kconfig.MustAdd(&kconfig.Option{
		Name:    name,
		Prompt:  "synthetic " + strings.ToLower(classTag(c)) + " option",
		Dir:     dir,
		Depends: syntheticDepends(c),
	})
	db.info[name] = Info{
		Class: c,
		Size:  classSize(c, name),
		Boot:  classBoot(c, name),
	}
}

// syntheticDepends gives synthetic options the dependency structure their
// real counterparts have: network protocols depend on the networking
// core, crypto algorithms on the crypto API. Both prerequisites are part
// of lupine-base, so the specializer's dependency closure always finds
// them satisfied — exactly as with the real named options.
func syntheticDepends(c Class) kconfig.Expr {
	switch c {
	case ClassAppNetwork:
		return kconfig.Symbol("NET")
	case ClassAppCrypto:
		return kconfig.Symbol("CRYPTO")
	default:
		return nil
	}
}
