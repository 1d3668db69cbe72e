package experiments

import (
	"fmt"

	"lupine/internal/guest"
	"lupine/internal/kbuild"
	"lupine/internal/libos"
	"lupine/internal/lmbench"
	"lupine/internal/metrics"
	"lupine/internal/simclock"
)

func init() {
	register("fig9", "System call latency via lmbench (null/read/write)", runFig9)
	register("fig10", "KML latency improvement vs busy-wait iterations", runFig10)
	register("fig11", "System call latency vs background control processes", runFig11)
	register("tab5", "Full lmbench: microVM vs lupine-general", runTable5)
}

// syscallLatencies measures the Figure 9 rows on a guest kernel.
func syscallLatencies(img *kbuild.Image) (null, read, write float64, err error) {
	k, err := guest.NewKernel(guest.Params{Image: img, RootFS: lmbench.BenchRootFS()})
	if err != nil {
		return 0, 0, 0, err
	}
	k.Spawn("lat", func(p *guest.Proc) int {
		start := p.Kernel().Now()
		const n = 1000
		for i := 0; i < n; i++ {
			p.Getppid()
		}
		null = p.Kernel().Now().Sub(start).Microseconds() / n
		read = lmbench.ReadLatency(p)
		write = lmbench.WriteLatency(p)
		p.Poweroff()
		return 0
	})
	err = k.Run()
	return null, read, write, err
}

func runFig9(*Env) (fmt.Stringer, error) {
	t := &metrics.Table{
		Title:   "Figure 9: system call latency (us)",
		Columns: []string{"system", "null", "read", "write"},
	}
	micro, err := microVMImage()
	if err != nil {
		return nil, err
	}
	nokml, err := lupineImage("lupine-nokml", nil, false, kbuild.O2)
	if err != nil {
		return nil, err
	}
	kml, err := lupineImage("lupine", nil, true, kbuild.O2)
	if err != nil {
		return nil, err
	}
	general, err := lupineGeneralImage(true)
	if err != nil {
		return nil, err
	}
	for _, img := range []*kbuild.Image{micro, nokml, kml, general} {
		n, r, w, err := syscallLatencies(img)
		if err != nil {
			return nil, err
		}
		t.AddRow(img.Name, n, r, w)
	}
	for _, s := range libos.All() {
		row := []interface{}{s.Name}
		for _, op := range []string{"null", "read", "write"} {
			if d, ok := s.SyscallLatency(op); ok {
				row = append(row, d.Microseconds())
			} else {
				row = append(row, "unsupported")
			}
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"paper: specialization buys up to ~56% on write vs microVM; KML an additional ~40% on null; OSv hardcodes getppid and cannot read /dev/zero; HermiTux read/write are off-scale (.19/.17)")
	return t, nil
}

func runFig10(*Env) (fmt.Stringer, error) {
	f := &metrics.Figure{
		Title:  "Figure 10: KML improvement vs busy-wait iterations between syscalls",
		XLabel: "iterations",
		YLabel: "fractional improvement",
	}
	nokml, err := lupineImage("lupine-nokml", nil, false, kbuild.O2)
	if err != nil {
		return nil, err
	}
	kml, err := lupineImage("lupine", nil, true, kbuild.O2)
	if err != nil {
		return nil, err
	}
	const perIter = 2 * simclock.Nanosecond // one loop iteration of busy work
	measure := func(img *kbuild.Image, busyIters int) (float64, error) {
		k, err := guest.NewKernel(guest.Params{Image: img, RootFS: lmbench.BenchRootFS()})
		if err != nil {
			return 0, err
		}
		var per float64
		k.Spawn("loop", func(p *guest.Proc) int {
			const n = 500
			start := p.Kernel().Now()
			for i := 0; i < n; i++ {
				p.Getppid()
				p.WorkIters(busyIters, perIter)
			}
			per = p.Kernel().Now().Sub(start).Microseconds() / n
			p.Poweroff()
			return 0
		})
		if err := k.Run(); err != nil {
			return 0, err
		}
		return per, nil
	}
	s := f.NewSeries("KML improvement")
	for _, iters := range []int{0, 10, 20, 40, 80, 120, 160} {
		base, err := measure(nokml, iters)
		if err != nil {
			return nil, err
		}
		fast, err := measure(kml, iters)
		if err != nil {
			return nil, err
		}
		s.Add(float64(iters), 1-fast/base)
	}
	f.Notes = append(f.Notes,
		"paper: ~40% improvement at 0 iterations, amortized below 5% by ~160 iterations")
	return f, nil
}

func runFig11(*Env) (fmt.Stringer, error) {
	f := &metrics.Figure{
		Title:  "Figure 11: syscall latency with sleeping control processes",
		XLabel: "control processes",
		YLabel: "us",
	}
	nokml, err := lupineImage("lupine-nokml", nil, false, kbuild.O2)
	if err != nil {
		return nil, err
	}
	kml, err := lupineImage("lupine", nil, true, kbuild.O2)
	if err != nil {
		return nil, err
	}
	type variant struct {
		label string
		img   *kbuild.Image
	}
	for _, v := range []variant{{"KML", kml}, {"NOKML", nokml}} {
		null := f.NewSeries(v.label + " null")
		read := f.NewSeries(v.label + " read")
		write := f.NewSeries(v.label + " write")
		for n := 1; n <= 1024; n *= 4 {
			k, err := guest.NewKernel(guest.Params{Image: v.img, RootFS: lmbench.BenchRootFS()})
			if err != nil {
				return nil, err
			}
			// Control processes: asleep for the whole measurement (§5).
			for i := 0; i < n; i++ {
				k.Spawn("sleep", func(p *guest.Proc) int {
					p.Nanosleep(simclock.Duration(100) * simclock.Second)
					return 0
				})
			}
			var vNull, vRead, vWrite float64
			k.Spawn("lat", func(p *guest.Proc) int {
				start := p.Kernel().Now()
				const iters = 500
				for i := 0; i < iters; i++ {
					p.Getppid()
				}
				vNull = p.Kernel().Now().Sub(start).Microseconds() / iters
				vRead = lmbench.ReadLatency(p)
				vWrite = lmbench.WriteLatency(p)
				p.Poweroff()
				return 0
			})
			if err := k.Run(); err != nil {
				return nil, err
			}
			null.Add(float64(n), vNull)
			read.Add(float64(n), vRead)
			write.Add(float64(n), vWrite)
		}
	}
	f.Notes = append(f.Notes,
		"paper: latency is flat from 1 to 1024 background control processes — multiple address spaces are not harmful (§5)")
	return f, nil
}

func runTable5(*Env) (fmt.Stringer, error) {
	t := &metrics.Table{
		Title:   "Table 5 (Appendix A): full lmbench, microVM vs lupine-general",
		Columns: []string{"op", "microVM", "lupine-general", "unit"},
	}
	micro, err := microVMImage()
	if err != nil {
		return nil, err
	}
	general, err := lupineGeneralImage(true)
	if err != nil {
		return nil, err
	}
	mres, err := lmbench.RunSuite(micro, lmbench.BenchRootFS(), nil)
	if err != nil {
		return nil, err
	}
	gres, err := lmbench.RunSuite(general, lmbench.BenchRootFS(), nil)
	if err != nil {
		return nil, err
	}
	for _, name := range lmbench.RowNames() {
		t.AddRow(name, mres[name].Value, gres[name].Value, mres[name].Unit)
	}
	t.Notes = append(t.Notes,
		"latencies in us (smaller better); bandwidths in MB/s (bigger better); pure-memory rows are configuration-independent, as in the paper")
	return t, nil
}
