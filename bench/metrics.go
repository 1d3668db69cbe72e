package main

// The workloads and the metrics the benchmark reports. BENCHMARK.json
// at the repository root lists the same names; a test keeps the two in
// step.

import (
	"fmt"
	"math"
	"strings"
)

type workload struct {
	name string
	run  func(*env) (*output, error)
}

var workloads = []*workload{
	{"netsplit", runNetsplit},
	{"regionfail", runRegionfail},
	{"catalog", runCatalog},
	{"paper", runPaper},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (valid: netsplit, regionfail, catalog, paper)", name)
}

type metricDef struct {
	name, unit string
	higher     bool // higher is better
}

// endToEnd are measured with tracing off; wall times are host time.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "iter_s_p50", unit: "s"},
	{name: "iter_s_p75", unit: "s"},
	{name: "events_per_s", unit: "events/s", higher: true},
	{name: "allocs_per_iter", unit: "allocs"},
	{name: "alloc_mb_per_iter", unit: "MiB"},
	{name: "peak_rss_mb", unit: "MiB"},
}

// perLayer come from a traced run. Layer times are reported as shares
// of traced iteration wall (self_frac), so a layer a workload never
// calls reads 0 rather than a time; multiply by trace.iter_s_p50 for
// seconds.
var perLayer = []metricDef{
	{name: "core.build.calls", unit: "count"},
	{name: "core.build.self_frac", unit: "ratio"},
	{name: "core.build.allocs", unit: "allocs"},
	{name: "core.boot.calls", unit: "count"},
	{name: "core.boot.self_frac", unit: "ratio"},
	{name: "kconfig.resolve.self_frac", unit: "ratio"},
	{name: "kbuild.build.self_frac", unit: "ratio"},
	{name: "boot.simulate.self_frac", unit: "ratio"},
	{name: "guest.run.self_frac", unit: "ratio"},
	{name: "guest.syscalls", unit: "count"},
	{name: "lmbench.suite.self_frac", unit: "ratio"},
	{name: "perfbench.messaging.self_frac", unit: "ratio"},
	{name: "vmm.supervise.calls", unit: "count"},
	{name: "vmm.supervise.self_frac", unit: "ratio"},
	{name: "vmm.restart_frac", unit: "ratio"},
	{name: "snapshot.capture.self_frac", unit: "ratio"},
	{name: "fleet.run.calls", unit: "count"},
	{name: "fleet.run.self_frac", unit: "ratio"},
	{name: "fleet.run.allocs", unit: "allocs"},
	{name: "fleet.events", unit: "count"},
	{name: "fleet.served_frac", unit: "ratio", higher: true},
	{name: "fleet.retries", unit: "count"},
	{name: "fabric.segments", unit: "count"},
	{name: "fabric.rexmit_frac", unit: "ratio"},
	{name: "fabric.drop_frac", unit: "ratio"},
	{name: "region.run.calls", unit: "count"},
	{name: "region.run.self_frac", unit: "ratio"},
	{name: "region.run.allocs", unit: "allocs"},
	{name: "region.events", unit: "count"},
	{name: "region.served_frac", unit: "ratio", higher: true},
	{name: "region.evac_restore_frac", unit: "ratio", higher: true},
	{name: "slo.sample.calls", unit: "count"},
	{name: "slo.sample.self_frac", unit: "ratio"},
	{name: "slo.finish.self_frac", unit: "ratio"},
	{name: "farm.run.self_frac", unit: "ratio"},
	{name: "bunny.compile_miss.calls", unit: "count"},
	{name: "bunny.compile_miss.self_frac", unit: "ratio"},
	{name: "bunny.compile_hit.calls", unit: "count"},
	{name: "bunny.compile_hit.self_frac", unit: "ratio"},
	{name: "bunny.hit_frac", unit: "ratio", higher: true},
	{name: "runtime.gc_cpu_frac", unit: "ratio"},
	{name: "runtime.gc_cycles", unit: "count"},
	{name: "trace.coverage", unit: "ratio", higher: true},
	{name: "trace.overhead_frac", unit: "ratio"},
	{name: "trace.iter_s_p50", unit: "s"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// scaled multiplies each host time by calibRef over the calibration
// taken just before it (see calibrate.go).
func scaled(xs, calib []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * calibRef / calib[i]
	}
	return out
}

// summarize folds one workload's rounds into its metrics. Host times
// are scaled by their calibrations and pooled over rounds (set-up time
// by its round's median calibration); count metrics are medians over
// all iterations, peak RSS and set-up time medians over rounds.
func summarize(rs []*roundResult, traced bool) result {
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	var setups, rss, walls, allocs, bytes, tracedWalls []float64
	for _, rr := range rs {
		res.Attempted += rr.Attempted
		res.Failed += rr.Failed
		if rr.Failed > 0 || rr.Digest != rs[0].Digest {
			res.Correct = false
		}
		setups = append(setups, rr.SetupS*calibRef/median(append(rr.Calib, rr.TracedCalib...)))
		rss = append(rss, rr.MaxRSSMiB)
		walls = append(walls, scaled(rr.Walls, rr.Calib)...)
		tracedWalls = append(tracedWalls, scaled(rr.TracedWalls, rr.TracedCalib)...)
		allocs = append(allocs, floats(rr.Allocs)...)
		bytes = append(bytes, floats(rr.Bytes)...)
	}
	set := func(name string, v float64) {
		for _, d := range append(endToEnd, perLayer...) {
			if d.name == name {
				res.Metrics[name] = metricValue{Value: v, Unit: d.unit}
				return
			}
		}
		panic("bench: undefined metric " + name)
	}
	if !traced {
		set("setup_s", median(setups))
		set("iter_s_p50", median(walls))
		set("iter_s_p75", quantile(walls, 0.75))
		set("events_per_s", float64(rs[0].Events)/median(walls))
		set("allocs_per_iter", median(allocs))
		set("alloc_mb_per_iter", median(bytes)/(1<<20))
		set("peak_rss_mb", median(rss))
		return res
	}

	layers, n := newLayerSums(), counts{}
	var gcCPU, busyCPU, gcCycles float64
	for _, rr := range rs {
		layers.merge(rr.Layers)
		n.add(rr.Counts)
		gcCPU += rr.GCCPUs
		busyCPU += rr.BusyCPUs
		gcCycles += float64(rr.GCCycles)
	}
	iters := float64(len(tracedWalls))
	iterNs := float64(layers.IterNs)
	perIter := func(v float64) float64 { return ratio(v, iters) }
	for _, d := range perLayer {
		if layer, ok := strings.CutSuffix(d.name, ".calls"); ok {
			set(d.name, perIter(float64(layers.Calls[layer])))
		} else if layer, ok := strings.CutSuffix(d.name, ".self_frac"); ok {
			set(d.name, ratio(float64(layers.SelfNs[layer]), iterNs))
		} else if layer, ok := strings.CutSuffix(d.name, ".allocs"); ok {
			set(d.name, perIter(float64(layers.Allocs[layer])))
		}
	}
	set("guest.syscalls", perIter(float64(n.Syscalls)))
	set("vmm.restart_frac", ratio(float64(n.Restarts), float64(n.Attempts)))
	set("fleet.events", perIter(float64(n.FleetEvents)))
	set("fleet.served_frac", ratio(float64(n.FleetOK), float64(n.FleetTotal)))
	set("fleet.retries", perIter(float64(n.FleetRetries)))
	set("fabric.segments", perIter(float64(n.Segments)))
	set("fabric.rexmit_frac", ratio(float64(n.Rexmits), float64(n.Segments)))
	set("fabric.drop_frac", ratio(float64(n.Drops), float64(n.Segments)))
	set("region.events", perIter(float64(n.RegionEvents)))
	set("region.served_frac", ratio(float64(n.RegionOK), float64(n.RegionTotal)))
	set("region.evac_restore_frac", ratio(float64(n.EvacRestores), float64(n.Evacuated)))
	set("bunny.hit_frac", ratio(float64(n.CacheHits), float64(n.CacheHits+n.CacheMisses)))
	set("runtime.gc_cpu_frac", math.Min(1, ratio(gcCPU, busyCPU)))
	set("runtime.gc_cycles", perIter(gcCycles))
	set("trace.coverage", 1-ratio(float64(layers.SelfNs[rootSpan]), iterNs))
	set("trace.overhead_frac", median(tracedWalls)/median(walls)-1)
	set("trace.iter_s_p50", median(tracedWalls))
	return res
}
