// Package core implements the paper's contribution: building a Lupine
// unikernel from a standard Linux source tree. Specialization happens
// through the Kconfig engine (lupine-base plus the application manifest's
// options), system call overhead elimination through the KML patch (kernel
// option plus patched musl in the root filesystem), and the application
// container image becomes an ext2 rootfs with a generated init script —
// the full pipeline of Figure 2. The package also provides the automatic
// minimal-configuration search of §4.1 and the memory-footprint probe of
// §4.4.
package core

import (
	"fmt"

	"lupine/internal/ext2"
	"lupine/internal/guest"
	"lupine/internal/kbuild"
	"lupine/internal/kconfig"
	"lupine/internal/kerneldb"
	"lupine/internal/manifest"
	"lupine/internal/rootfs"
)

// AppProgram is the modeled application body: it runs as the guest's
// (single) application process after the init script execs the
// entrypoint. probeOnly asks servers to skip their request loop.
type AppProgram func(p *guest.Proc, probeOnly bool) int

// Spec bundles everything Lupine needs to build a unikernel for one
// application.
type Spec struct {
	Manifest *manifest.Manifest
	Image    *rootfs.Image
	Program  AppProgram
}

// BuildOpts selects the Lupine variant (§4): -nokml (default), KML, and
// -tiny; ExtraOptions support the graceful-degradation experiments of §5
// (e.g. re-enabling SMP).
type BuildOpts struct {
	Name         string // artifact name; defaults to "lupine-<app>"
	KML          bool
	Tiny         bool
	ExtraOptions []string
}

// Unikernel is a built Lupine artifact: a specialized kernel image plus
// an application root filesystem (a real ext2 image, which points at
// the container image's file bytes).
type Unikernel struct {
	Spec       Spec
	Kernel     *kbuild.Image
	RootFS     *ext2.Image
	InitScript string
}

// Build assembles a Lupine unikernel.
func Build(db *kerneldb.DB, spec Spec, opts BuildOpts) (*Unikernel, error) {
	if spec.Manifest == nil || spec.Image == nil || spec.Program == nil {
		return nil, fmt.Errorf("core: incomplete spec (manifest/image/program required)")
	}
	if err := spec.Manifest.Validate(); err != nil {
		return nil, err
	}
	name := opts.Name
	if name == "" {
		name = "lupine-" + spec.Manifest.App
		if opts.KML {
			name += "-kml"
		}
		if opts.Tiny {
			name += "-tiny"
		}
	}

	// The manifest's options plus whatever they depend on.
	closure, err := kconfig.DependencyClosure(db.Kconfig, spec.Manifest.Options)
	if err != nil {
		return nil, err
	}
	img, err := Kernel(db, name, append(closure, opts.ExtraOptions...), opts.KML, opts.Tiny)
	if err != nil {
		return nil, err
	}
	fsBytes, err := rootfs.BuildExt2(spec.Image, spec.Manifest, opts.KML)
	if err != nil {
		return nil, err
	}
	return &Unikernel{
		Spec:       spec,
		Kernel:     img,
		RootFS:     fsBytes,
		InitScript: rootfs.InitScript(spec.Image, spec.Manifest),
	}, nil
}

// Kernel builds a Lupine kernel named name: lupine-base plus options.
// kml swaps CONFIG_PARAVIRT, which conflicts with the KML patch (§4.3),
// for CONFIG_KERNEL_MODE_LINUX; tiny builds -tiny, at -Os with
// kerneldb.TinyDisables switched off. Build uses it for a unikernel's
// kernel.
func Kernel(db *kerneldb.DB, name string, options []string, kml, tiny bool) (*kbuild.Image, error) {
	req := db.LupineBaseRequest().Enable(options...)
	if kml {
		req.Set("PARAVIRT", kconfig.No).Enable("KERNEL_MODE_LINUX")
	}
	level := kbuild.O2
	if tiny {
		level = kbuild.Os
		for _, o := range kerneldb.TinyDisables() {
			req.Set(o, kconfig.No)
		}
	}
	cfg, err := db.ResolveProfile(req)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", name, err)
	}
	return kbuild.Build(db, name, cfg, level)
}

// BuildMicroVM builds the Firecracker microVM baseline kernel (Table 2's
// first row) with the same application rootfs, so the comparison isolates
// kernel configuration.
func BuildMicroVM(db *kerneldb.DB, spec Spec) (*Unikernel, error) {
	if spec.Manifest == nil || spec.Image == nil || spec.Program == nil {
		return nil, fmt.Errorf("core: incomplete spec (manifest/image/program required)")
	}
	cfg, err := db.ResolveProfile(db.MicroVMRequest())
	if err != nil {
		return nil, err
	}
	img, err := kbuild.Build(db, "microvm", cfg, kbuild.O2)
	if err != nil {
		return nil, err
	}
	fsBytes, err := rootfs.BuildExt2(spec.Image, spec.Manifest, false)
	if err != nil {
		return nil, err
	}
	return &Unikernel{
		Spec:       spec,
		Kernel:     img,
		RootFS:     fsBytes,
		InitScript: rootfs.InitScript(spec.Image, spec.Manifest),
	}, nil
}

// BuildGeneral builds a lupine-general unikernel for the given app: the
// kernel carries the full 19-option union rather than the app's own set.
func BuildGeneral(db *kerneldb.DB, spec Spec, kml bool) (*Unikernel, error) {
	general := append([]string(nil), kerneldb.GeneralOptions()...)
	opts := BuildOpts{
		Name:         "lupine-general-" + spec.Manifest.App,
		KML:          kml,
		ExtraOptions: general,
	}
	return Build(db, spec, opts)
}
