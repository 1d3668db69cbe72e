package experiments

import (
	"fmt"

	"lupine/internal/boot"
	"lupine/internal/core"
	"lupine/internal/guest"
	"lupine/internal/kbuild"
	"lupine/internal/libos"
	"lupine/internal/metrics"
	"lupine/internal/vmm"
)

func init() {
	register("fig6", "Image size for hello world", runFig6)
	register("fig7", "Boot time for hello world", runFig7)
	register("fig8", "Memory footprint (hello, nginx, redis)", runFig8)
}

// helloOptions: hello world needs nothing beyond lupine-base.
var helloOptions []string

func runFig6(*Env) (fmt.Stringer, error) {
	t := &metrics.Table{
		Title:   "Figure 6: kernel image size, hello world (MB)",
		Columns: []string{"system", "image MB"},
	}
	micro, err := microVMImage()
	if err != nil {
		return nil, err
	}
	lup, err := lupineImage("lupine", helloOptions, true, kbuild.O2)
	if err != nil {
		return nil, err
	}
	tiny, err := lupineImage("lupine-tiny", helloOptions, true, kbuild.Os)
	if err != nil {
		return nil, err
	}
	general, err := lupineGeneralImage(true)
	if err != nil {
		return nil, err
	}
	for _, img := range []*kbuild.Image{micro, lup, tiny, general} {
		t.AddRow(img.Name, img.MegabytesMB())
	}
	for _, s := range libos.All() {
		sz, err := s.ImageSize("hello-world")
		if err != nil {
			return nil, err
		}
		t.AddRow(s.Name, float64(sz)/1e6)
	}
	t.Notes = append(t.Notes,
		"paper: lupine-base is 27% of microVM (~4 MB); -tiny a further ~6% smaller; lupine-general stays below OSv and Rump")
	return t, nil
}

func runFig7(*Env) (fmt.Stringer, error) {
	t := &metrics.Table{
		Title:   "Figure 7: boot time for hello world (ms)",
		Columns: []string{"system", "boot ms"},
	}
	micro, err := microVMImage()
	if err != nil {
		return nil, err
	}
	nokml, err := lupineImage("lupine-nokml", helloOptions, false, kbuild.O2)
	if err != nil {
		return nil, err
	}
	general, err := lupineGeneralImage(false)
	if err != nil {
		return nil, err
	}
	const rootfsBytes = 3 << 20
	for _, img := range []*kbuild.Image{micro, nokml, general} {
		r, err := boot.Simulate(img, vmm.Firecracker(), rootfsBytes)
		if err != nil {
			return nil, err
		}
		t.AddRow(img.Name, r.Total.Milliseconds())
	}
	// Unikernel comparators, including both OSv filesystem variants.
	herm := libos.HermiTux()
	rofs, _ := libos.OSv("rofs")
	zfs, _ := libos.OSv("zfs")
	rump := libos.Rump()
	for _, s := range []*libos.System{herm, rofs, zfs, rump} {
		bt, err := s.BootTime("hello-world")
		if err != nil {
			return nil, err
		}
		t.AddRow(s.Name, bt.Milliseconds())
	}
	t.Notes = append(t.Notes,
		"paper: lupine ~23 ms (59% faster than microVM); OSv zfs->rofs is 10x; lupine-general adds ~2 ms and still beats HermiTux and OSv-zfs",
		"KML variants boot without CONFIG_PARAVIRT (~71 ms, see the paravirt ablation); the paper reports -nokml for the same reason")
	return t, nil
}

func runFig8(*Env) (fmt.Stringer, error) {
	t := &metrics.Table{
		Title:   "Figure 8: memory footprint (MB)",
		Columns: []string{"system", "hello", "nginx", "redis"},
	}
	appNames := []string{"hello-world", "nginx", "redis"}

	footRow := func(label string, build func(spec core.Spec) (*core.Unikernel, error)) error {
		cells := []interface{}{label}
		for _, name := range appNames {
			spec, a, err := appSpec(name)
			if err != nil {
				return err
			}
			u, err := build(spec)
			if err != nil {
				return err
			}
			fp, err := u.MemoryFootprint(core.BootOpts{}, a.SuccessText)
			if err != nil {
				return err
			}
			cells = append(cells, float64(fp)/float64(guest.MiB))
		}
		t.AddRow(cells...)
		return nil
	}
	if err := footRow("microvm", func(spec core.Spec) (*core.Unikernel, error) {
		return core.BuildMicroVM(db(), spec)
	}); err != nil {
		return nil, err
	}
	if err := footRow("lupine", func(spec core.Spec) (*core.Unikernel, error) {
		return core.Build(db(), spec, core.BuildOpts{KML: true})
	}); err != nil {
		return nil, err
	}
	if err := footRow("lupine-general", func(spec core.Spec) (*core.Unikernel, error) {
		return core.BuildGeneral(db(), spec, true)
	}); err != nil {
		return nil, err
	}
	for _, s := range libos.All() {
		cells := []interface{}{s.Name}
		for _, name := range appNames {
			if fp, err := s.MemoryFootprint(name); err == nil {
				cells = append(cells, float64(fp)/float64(libos.MiB))
			} else {
				cells = append(cells, "n/a")
			}
		}
		t.AddRow(cells...)
	}
	t.Notes = append(t.Notes,
		"paper: Linux-based footprints are flat across apps (lazy loading); lupine ~21 MB beats every unikernel on redis; HermiTux cannot run nginx")
	return t, nil
}
