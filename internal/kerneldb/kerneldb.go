// Package kerneldb provides the synthetic Linux 4.0 configuration-option
// database the Lupine reproduction specializes against. The tree mirrors
// the paper's census: 15,953 options distributed over the kernel source
// directories of Figure 3, an 833-option Firecracker microVM profile, and
// the 283-option lupine-base profile obtained by removing ~550 options
// classified as application-specific, multi-process-only, or physical
// hardware management (Figure 4).
//
// Every option carries cost annotations (image size contribution, boot-time
// initialization cost, gated system calls) that the build, boot and guest
// simulators consume, so the paper's downstream numbers are derived from
// configuration rather than hard-coded.
package kerneldb

import (
	"fmt"
	"hash/fnv"
	"sync"

	"lupine/internal/kconfig"
	"lupine/internal/simclock"
)

// Class categorizes an option the way Figure 4 does.
type Class int

// Option classes. ClassUnselected marks options present in the source tree
// but not part of the microVM configuration.
const (
	ClassUnselected     Class = iota
	ClassBase                 // kept in lupine-base
	ClassAppNetwork           // application-specific: network protocols
	ClassAppFilesystem        // application-specific: filesystems
	ClassAppCrypto            // application-specific: crypto routines
	ClassAppCompression       // application-specific: compression
	ClassAppDebug             // application-specific: debugging/info
	ClassAppSyscall           // application-specific: syscall-gating (Table 1)
	ClassAppOther             // application-specific: other services
	ClassMultiProc            // unnecessary: multi-process/multi-user/SMP
	ClassHardware             // unnecessary: physical hardware management
)

// String names the class as used in Figure 4's breakdown.
func (c Class) String() string {
	switch c {
	case ClassUnselected:
		return "unselected"
	case ClassBase:
		return "lupine-base"
	case ClassAppNetwork:
		return "app: network"
	case ClassAppFilesystem:
		return "app: filesystem"
	case ClassAppCrypto:
		return "app: crypto"
	case ClassAppCompression:
		return "app: compression"
	case ClassAppDebug:
		return "app: debugging"
	case ClassAppSyscall:
		return "app: system calls"
	case ClassAppOther:
		return "app: other"
	case ClassMultiProc:
		return "multiple processes"
	case ClassHardware:
		return "hardware management"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// AppSpecific reports whether the class belongs to Figure 4's
// "application-specific" super-category.
func (c Class) AppSpecific() bool {
	switch c {
	case ClassAppNetwork, ClassAppFilesystem, ClassAppCrypto,
		ClassAppCompression, ClassAppDebug, ClassAppSyscall, ClassAppOther:
		return true
	}
	return false
}

// InMicroVM reports whether options of this class are part of the
// Firecracker microVM profile.
func (c Class) InMicroVM() bool { return c != ClassUnselected }

// Info is the cost/semantics annotation attached to every option.
type Info struct {
	Class    Class
	Size     int64             // bytes contributed to the kernel image when enabled
	Boot     simclock.Duration // boot-time initialization cost when enabled
	Syscalls []string          // system calls gated by this option (Table 1)
}

// DB bundles the option tree with its annotations.
type DB struct {
	Kconfig *kconfig.Database
	info    map[string]Info

	// Computed once by build and read-only after it: the sorted profile
	// lists and which option gates each system call.
	microVM, base, removed []string
	gating                 map[string]string

	versionOnce sync.Once
	version     string
}

// Version returns a short digest identifying this kernel tree: every
// option name with its class and cost annotations, folded in declaration
// order. It stands in for the kernel source version, so build artifacts
// content-addressed by (spec digest, kerneldb version) are invalidated
// when the tree — not just the spec — changes.
func (db *DB) Version() string {
	db.versionOnce.Do(func() {
		h := fnv.New64a()
		for _, o := range db.Kconfig.Options() {
			info := db.info[o.Name]
			fmt.Fprintf(h, "%s|%d|%d|%d|", o.Name, info.Class, info.Size, int64(info.Boot))
			for _, sc := range info.Syscalls {
				fmt.Fprintf(h, "%s,", sc)
			}
		}
		db.version = fmt.Sprintf("linux4.0-%016x", h.Sum64())
	})
	return db.version
}

// Info returns the annotation for an option; unknown names yield a zero
// Info (class unselected, zero cost).
func (db *DB) Info(name string) Info { return db.info[name] }

// Class is shorthand for Info(name).Class.
func (db *DB) Class(name string) Class { return db.info[name].Class }

var (
	loadOnce sync.Once
	loaded   *DB
	loadErr  error
)

// Load builds (once) and returns the full synthetic kernel tree.
func Load() (*DB, error) {
	loadOnce.Do(func() { loaded, loadErr = build() })
	return loaded, loadErr
}

// MustLoad is Load that panics on error, for use in tests and examples.
func MustLoad() *DB {
	db, err := Load()
	if err != nil {
		panic(err)
	}
	return db
}

func build() (*DB, error) {
	db := &DB{Kconfig: kconfig.NewDatabase(), info: make(map[string]Info)}

	// Named, real options first: they are parsed from Kconfig DSL text, so
	// their prompts, help, dependencies, defaults and the allocator choice
	// go through the same parser as any Kconfig file, and a construct the
	// engine does not implement fails the load. Each fragment is parsed
	// under its directory path so the per-directory census of Figure 3
	// sees them.
	p := kconfig.NewParser(db.Kconfig)
	for _, f := range namedFiles {
		if err := p.ParseString(f.path, f.text); err != nil {
			return nil, fmt.Errorf("kerneldb: parsing named options: %w", err)
		}
	}
	for name, info := range namedInfo {
		if db.Kconfig.Lookup(name) == nil {
			return nil, fmt.Errorf("kerneldb: annotation for undeclared option %s", name)
		}
		db.info[name] = info
	}
	for _, o := range db.Kconfig.Options() {
		if _, ok := db.info[o.Name]; !ok {
			return nil, fmt.Errorf("kerneldb: named option %s lacks an annotation", o.Name)
		}
	}

	// Synthetic fillers complete each (directory, class) bucket and the
	// per-directory totals of Figure 3.
	if err := generateSynthetic(db); err != nil {
		return nil, err
	}
	if errs := db.Kconfig.Validate(); len(errs) != 0 {
		return nil, fmt.Errorf("kerneldb: invalid tree: %v", errs[0])
	}
	gating, err := gatingTable(db.Kconfig.Options(), db.info)
	if err != nil {
		return nil, err
	}
	db.gating = gating
	db.microVM = db.optionsWhere(func(i Info) bool { return i.Class.InMicroVM() })
	db.base = db.optionsWhere(func(i Info) bool { return i.Class == ClassBase })
	db.removed = db.optionsWhere(func(i Info) bool { return i.Class.InMicroVM() && i.Class != ClassBase })
	return db, nil
}

// gatingTable maps each system call to the option that gates it. A call
// gated by two options is an error: which of them decides would depend on
// the order a lookup met them in.
func gatingTable(opts []*kconfig.Option, info map[string]Info) (map[string]string, error) {
	gates := make(map[string]string)
	for _, o := range opts {
		for _, sc := range info[o.Name].Syscalls {
			if other, dup := gates[sc]; dup {
				return nil, fmt.Errorf("kerneldb: system call %s is gated by both %s and %s", sc, other, o.Name)
			}
			gates[sc] = o.Name
		}
	}
	return gates, nil
}

// costJitter derives a deterministic per-option scale factor in
// [0.75, 1.25) from the option name, so per-class sums stay close to
// class averages while individual options differ.
func costJitter(name string) float64 {
	h := fnv.New32a()
	h.Write([]byte(name))
	return 0.75 + float64(h.Sum32()%500)/1000.0
}

// classSize returns the image-size contribution for a synthetic option of
// the given class.
func classSize(c Class, name string) int64 {
	var avg int64
	switch c {
	case ClassBase:
		avg = 8800
	case ClassAppNetwork:
		avg = 13500
	case ClassAppFilesystem:
		avg = 20000
	case ClassAppCrypto:
		avg = 12000
	case ClassAppCompression:
		avg = 10000
	case ClassAppDebug:
		avg = 21000
	case ClassAppSyscall:
		avg = 8000
	case ClassAppOther:
		avg = 10000
	case ClassMultiProc:
		avg = 15000
	case ClassHardware:
		avg = 26000
	default:
		avg = 20000
	}
	return int64(float64(avg) * costJitter(name))
}

// classBoot returns the boot-time cost for a synthetic option of the
// given class.
func classBoot(c Class, name string) simclock.Duration {
	var avg simclock.Duration
	switch c {
	case ClassBase:
		avg = 40 * simclock.Microsecond
	case ClassAppNetwork:
		avg = 55 * simclock.Microsecond
	case ClassAppFilesystem:
		avg = 60 * simclock.Microsecond
	case ClassAppCrypto:
		avg = 50 * simclock.Microsecond
	case ClassAppCompression:
		avg = 30 * simclock.Microsecond
	case ClassAppDebug:
		avg = 80 * simclock.Microsecond
	case ClassAppSyscall:
		avg = 15 * simclock.Microsecond
	case ClassAppOther:
		avg = 40 * simclock.Microsecond
	case ClassMultiProc:
		avg = 50 * simclock.Microsecond
	case ClassHardware:
		avg = 70 * simclock.Microsecond
	default:
		avg = 60 * simclock.Microsecond
	}
	return simclock.Duration(float64(avg) * costJitter(name))
}
