// Command lupine-build builds a Lupine unikernel for one of the top-20
// registry applications (Figure 2's pipeline): specialized kernel config,
// optional KML patching, and the ext2 root filesystem.
//
// Usage:
//
//	lupine-build -app redis [-kml] [-tiny] [-o dir]
//	lupine-build -list
package main

import (
	"flag"
	"fmt"
	"os"

	"lupine/internal/apps"
	"lupine/internal/core"
	"lupine/internal/guest"
	"lupine/internal/kerneldb"
)

func main() {
	appName := flag.String("app", "", "application to build (see -list)")
	kml := flag.Bool("kml", false, "apply Kernel Mode Linux (drops CONFIG_PARAVIRT)")
	tiny := flag.Bool("tiny", false, "optimize for space (-Os plus 9 flipped options)")
	general := flag.Bool("general", false, "use the 19-option lupine-general config")
	outDir := flag.String("o", "", "write kernel .config, init script and rootfs.ext2 to this directory")
	list := flag.Bool("list", false, "list buildable applications")
	all := flag.Bool("all", false, "build every registry app through a shared kernel cache (MultiK-style)")
	flag.Parse()

	if *list {
		for _, a := range apps.Registry() {
			fmt.Printf("%-14s %-22s %2d options\n", a.Name, a.Description, len(a.Options))
		}
		return
	}
	if *all {
		buildAll(*kml, *tiny)
		return
	}
	if *appName == "" {
		fmt.Fprintln(os.Stderr, "lupine-build: -app is required (or -list/-all)")
		os.Exit(2)
	}
	a, err := apps.Lookup(*appName)
	if err != nil {
		fatal(err)
	}
	db, err := kerneldb.Load()
	if err != nil {
		fatal(err)
	}
	spec := core.Spec{
		Manifest: a.Manifest(),
		Image:    a.ContainerImage(),
		Program:  func(p *guest.Proc, probeOnly bool) int { return a.Main(p, probeOnly) },
	}
	var u *core.Unikernel
	if *general {
		u, err = core.BuildGeneral(db, spec, *kml)
	} else {
		u, err = core.Build(db, spec, core.BuildOpts{KML: *kml, Tiny: *tiny})
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("built %s\n", u.Kernel.Name)
	fmt.Printf("  kernel image:   %.2f MB (%s, %d options)\n",
		u.Kernel.MegabytesMB(), u.Kernel.Opt, u.Kernel.Config.Len())
	fmt.Printf("  rootfs (ext2):  %.2f MB\n", float64(u.RootFS.Size())/1e6)
	fmt.Printf("  KML:            %v\n", u.Kernel.KML())
	fmt.Printf("  manifest opts:  %v\n", u.Spec.Manifest.Options)

	if *outDir != "" {
		paths, err := u.WriteArtifacts(*outDir)
		if err != nil {
			fatal(err)
		}
		for _, p := range paths {
			fmt.Printf("  wrote %s\n", p)
		}
	}
}

// buildAll builds the whole registry through a kernel cache, reporting
// how much kernel sharing MultiK-style orchestration achieves.
func buildAll(kml, tiny bool) {
	db, err := kerneldb.Load()
	if err != nil {
		fatal(err)
	}
	cache := core.NewKernelCache(db)
	for _, a := range apps.Registry() {
		a := a
		spec := core.Spec{
			Manifest: a.Manifest(),
			Image:    a.ContainerImage(),
			Program:  func(p *guest.Proc, probeOnly bool) int { return a.Main(p, probeOnly) },
		}
		u, _, err := cache.Build(spec, core.BuildOpts{KML: kml, Tiny: tiny})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-14s kernel %-28s %6.2f MB  rootfs %6.2f MB\n",
			a.Name, u.Kernel.Name, u.Kernel.MegabytesMB(), float64(u.RootFS.Size())/1e6)
	}
	st := cache.CacheStats()
	fmt.Printf("\nkernel cache: %d distinct kernels serve %d applications (%d shared)\n",
		st.Builds, st.Builds+st.Hits, st.Hits)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lupine-build:", err)
	os.Exit(1)
}
