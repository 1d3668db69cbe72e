// Package kbuild turns a resolved kernel configuration into a kernel image
// artifact. It models the part of `make bzImage` that matters to the
// paper's evaluation: the image size (per-option code size, -O2 vs -Os),
// the feature set and gated system call table the guest kernel exposes,
// and the accumulated boot-time initialization cost of the enabled options.
package kbuild

import (
	"fmt"

	"lupine/internal/kconfig"
	"lupine/internal/kerneldb"
	"lupine/internal/simclock"
)

// OptLevel is the compiler optimization level used for the build.
type OptLevel int

// Optimization levels referenced in §4 (-O2 default, -Os for lupine-tiny).
const (
	O2 OptLevel = iota
	Os
)

// String renders the compiler flag.
func (o OptLevel) String() string {
	if o == Os {
		return "-Os"
	}
	return "-O2"
}

// coreSize is the size of the irreducible kernel core (entry code, core VM,
// scheduler skeleton) present regardless of configuration.
const coreSize = 1_500_000

// osSizeFactor models -Os: roughly 4.5% smaller text than -O2 (the paper's
// -tiny observes ~6% total, the rest coming from the 9 flipped options).
const osSizeFactor = 0.955

// osRuntimePenalty is the relative slowdown of -Os code on hot paths,
// responsible for lupine-tiny's lower throughput in Table 4.
const osRuntimePenalty = 1.06

// Image is a built kernel binary plus the metadata the monitor, boot and
// guest simulators consume.
type Image struct {
	Name   string
	Config *kconfig.Config
	Opt    OptLevel

	Size           int64             // bytes
	BootOptionCost simclock.Duration // sum of enabled options' init costs

	// Syscall gating is a property of the *tree*, not the config: a
	// syscall is unavailable iff its gating option exists and is
	// disabled. Every image asks the tree's one gating table.
	tree *kerneldb.DB
}

// Build compiles a resolved configuration into an image.
func Build(db *kerneldb.DB, name string, cfg *kconfig.Config, opt OptLevel) (*Image, error) {
	if cfg == nil {
		return nil, fmt.Errorf("kbuild: nil config")
	}
	img := &Image{
		Name:   name,
		Config: cfg,
		Opt:    opt,
		tree:   db,
	}
	var size int64 = coreSize
	for _, n := range cfg.Names() {
		if !cfg.Enabled(n) {
			continue
		}
		if db.Kconfig.Lookup(n) == nil {
			return nil, fmt.Errorf("kbuild: config enables unknown option %s", n)
		}
		info := db.Info(n)
		size += info.Size
		img.BootOptionCost += info.Boot
	}
	if opt == Os {
		size = int64(float64(size) * osSizeFactor)
	}
	img.Size = size
	return img, nil
}

// Enabled reports whether a configuration option is on in this image.
func (img *Image) Enabled(option string) bool { return img.Config.Enabled(option) }

// KML reports whether the image was built from KML-patched source with
// CONFIG_KERNEL_MODE_LINUX enabled.
func (img *Image) KML() bool { return img.Enabled("KERNEL_MODE_LINUX") }

// HasSyscall reports whether the image's kernel exposes the system call:
// true when no option gates it, or its gating option is enabled.
func (img *Image) HasSyscall(name string) bool {
	opt := img.tree.OptionForSyscall(name)
	return opt == "" || img.Enabled(opt)
}

// GatingOption returns the option controlling a system call ("" if the
// call is unconditional).
func (img *Image) GatingOption(syscall string) string { return img.tree.OptionForSyscall(syscall) }

// RuntimeScale is the multiplier applied to user/kernel CPU work executed
// on this kernel, reflecting the optimization level.
func (img *Image) RuntimeScale() float64 {
	if img.Opt == Os {
		return osRuntimePenalty
	}
	return 1.0
}

// MegabytesMB reports the image size in decimal megabytes, the unit of
// Figure 6.
func (img *Image) MegabytesMB() float64 { return float64(img.Size) / 1e6 }
