// Quickstart: build a Lupine unikernel for a hello-world container and
// boot it under Firecracker — the minimal end-to-end path through the
// public pipeline (specialize → build → rootfs → boot → run).
package main

import (
	"fmt"
	"log"

	"lupine/internal/apps"
	"lupine/internal/core"
	"lupine/internal/guest"
	"lupine/internal/kerneldb"
)

func main() {
	// 1. The option database: a synthetic Linux 4.0 tree (15,953 options).
	db, err := kerneldb.Load()
	if err != nil {
		log.Fatal(err)
	}

	// 2. The application: hello-world from the top-20 registry. Its
	//    manifest needs zero options beyond lupine-base.
	app, err := apps.Lookup("hello-world")
	if err != nil {
		log.Fatal(err)
	}
	spec := core.Spec{
		Manifest: app.Manifest(),
		Image:    app.ContainerImage(),
		Program:  func(p *guest.Proc, probeOnly bool) int { return app.Main(p, probeOnly) },
	}

	// 3. Build the unikernel: lupine-base config + KML + ext2 rootfs.
	u, err := core.Build(db, spec, core.BuildOpts{KML: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("kernel %s: %.2f MB, %d config options, KML=%v\n",
		u.Kernel.Name, u.Kernel.MegabytesMB(), u.Kernel.Config.Len(), u.Kernel.KML())
	fmt.Printf("rootfs: %.2f MB ext2 image\n\n", float64(u.RootFS.Size())/1e6)

	// 4. Boot under Firecracker and run to completion.
	vm, err := u.Boot(core.BootOpts{})
	if err != nil {
		log.Fatal(err)
	}
	if err := vm.Run(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("boot timeline:")
	fmt.Println(vm.Boot)
	fmt.Println("console:")
	fmt.Print(vm.Console())
	fmt.Printf("\nsuccess: %v (peak guest memory %d MiB)\n",
		vm.Succeeded(app.SuccessText), vm.Guest.MemPeak()/guest.MiB)
}
