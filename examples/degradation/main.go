// Degradation example (§5): unikernels crash when an application steps
// outside the single-process box; Lupine degrades gracefully. The demo
// runs a shell-like control-process pattern (fork + exec + wait) on a
// Lupine kernel, shows every comparator failing the same program, and
// quantifies what re-enabling SMP costs.
package main

import (
	"fmt"
	"log"

	"lupine/internal/apps"
	"lupine/internal/core"
	"lupine/internal/guest"
	"lupine/internal/kbuild"
	"lupine/internal/kerneldb"
	"lupine/internal/libos"
	"lupine/internal/perfbench"
)

func main() {
	db, err := kerneldb.Load()
	if err != nil {
		log.Fatal(err)
	}
	app, err := apps.Lookup("redis")
	if err != nil {
		log.Fatal(err)
	}

	// A launcher script: set up the environment, fork the server, keep a
	// control process around — "extremely common in practice" (§5), and
	// fatal on every real unikernel.
	spec := core.Spec{
		Manifest: app.Manifest(),
		Image:    app.ContainerImage(),
		Program: func(p *guest.Proc, probeOnly bool) int {
			p.Setenv("REDIS_MAXMEMORY", "64mb")
			_, e := p.Fork(func(c *guest.Proc) int {
				if e := c.Execve(app.Entrypoint[0]); e != guest.OK {
					c.Printf("launcher: exec %s: %v\n", app.Entrypoint[0], e)
					return 1
				}
				return app.Main(c, true)
			})
			if e != guest.OK {
				p.Println("launcher: fork failed")
				return 1
			}
			pid, status, _ := p.Wait()
			p.Printf("launcher: server pid %d exited %d; control process still alive\n", pid, status)
			return 0
		},
	}
	u, err := core.Build(db, spec, core.BuildOpts{})
	if err != nil {
		log.Fatal(err)
	}
	vm, err := u.Boot(core.BootOpts{})
	if err != nil {
		log.Fatal(err)
	}
	if err := vm.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("--- Lupine: fork/exec launcher ---")
	fmt.Print(vm.Console())
	fmt.Printf("graceful: %v\n\n", vm.Succeeded("control process still alive"))

	fmt.Println("--- the same program on the comparators ---")
	for _, s := range libos.All() {
		fmt.Printf("%-10s %v\n", s.Name, s.Fork())
	}

	// Re-enabling SMP: the worst case is a futex-heavy workload on one
	// CPU; the upside is real parallelism.
	fmt.Println("\n--- cost of re-enabling CONFIG_SMP (§5) ---")
	up, err := buildBench(db, false)
	if err != nil {
		log.Fatal(err)
	}
	smp, err := buildBench(db, true)
	if err != nil {
		log.Fatal(err)
	}
	upT, err := perfbench.FutexStress(up, 64, 20, 1)
	if err != nil {
		log.Fatal(err)
	}
	smpT, err := perfbench.FutexStress(smp, 64, 20, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("futex stress: no-SMP %.2f ms, SMP %.2f ms (overhead %.1f%%)\n",
		upT.Milliseconds(), smpT.Milliseconds(), (float64(smpT)/float64(upT)-1)*100)
	one, _ := perfbench.MakeJ(smp, 128, 1)
	two, _ := perfbench.MakeJ(smp, 128, 2)
	fmt.Printf("make -j 128 jobs: 1 cpu %.1f ms, 2 cpus %.1f ms (%.2fx speedup)\n",
		one.Milliseconds(), two.Milliseconds(), float64(one)/float64(two))
}

func buildBench(db *kerneldb.DB, smp bool) (*kbuild.Image, error) {
	req := db.LupineBaseRequest().Enable("FUTEX", "UNIX")
	name := "lupine-up"
	if smp {
		req.Enable("SMP")
		name = "lupine-smp"
	}
	cfg, err := db.ResolveProfile(req)
	if err != nil {
		return nil, err
	}
	return kbuild.Build(db, name, cfg, kbuild.O2)
}
