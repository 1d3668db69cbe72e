package main

// One round: a fresh process sets up, runs one untimed warm-up
// iteration, then repeats timed iterations until its share of the run's
// seconds is spent. One goroutine drives one iteration at a time; inside
// an iteration the simulated arrivals are open-loop in virtual time.

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"

	"lupine/internal/kerneldb"
)

// roundResult is what a round's process reports to the parent, as one
// JSON line on its standard output.
type roundResult struct {
	SetupS    float64            `json:"setup_s"`
	Walls     []float64          `json:"walls"` // untraced iterations, s
	Calib     []float64          `json:"calib"` // the calibration before each of Walls, s
	Allocs    []uint64           `json:"allocs"`
	Bytes     []uint64           `json:"bytes"`
	Events    int                `json:"events"` // per iteration
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	MaxRSSMiB float64            `json:"max_rss_mib"`
	Digest    string             `json:"digest"`
	Hero      map[string]float64 `json:"hero"`

	// Traced iterations only (every other iteration of a traced run).
	TracedWalls []float64  `json:"traced_walls,omitempty"`
	TracedCalib []float64  `json:"traced_calib,omitempty"`
	Counts      counts     `json:"counts"`
	Layers      *layerSums `json:"layers,omitempty"`
	GCCPUs      float64    `json:"gc_cpu_s"`
	BusyCPUs    float64    `json:"busy_cpu_s"`
	GCCycles    uint64     `json:"gc_cycles"`
	Spans       []span     `json:"spans,omitempty"`
}

// maxFailures caps the failure messages a round reports.
const maxFailures = 5

// tracedIterationsKept bounds the traced iterations per round whose
// spans go to the trace file; the per-layer metrics use them all.
const tracedIterationsKept = 5

func measureRound(w *workload, seed uint64, budget time.Duration, traced bool, start time.Time) (*roundResult, error) {
	db := kerneldb.MustLoad()
	ref, err := w.run(&env{db: db, seed: seed})
	if err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", w.name, err)
	}
	rr := &roundResult{
		Events: ref.events, Digest: ref.digest(),
		Hero: ref.hero, SetupS: time.Since(start).Seconds(),
	}
	refErr := checkOutput(w.name, seed, ref)

	// A traced round alternates traced and untraced iterations, so it
	// measures the tracing overhead too; it needs one of each.
	var tr *tracer
	minIters := 1
	if traced {
		tr = newTracer()
		rr.Layers = newLayerSums()
		minIters = 2
	}
	calibrate() // the first pass faults in fresh pages; keep it out of the pairing
	deadline := time.Now().Add(budget)
	for i := 0; i < minIters || time.Now().Before(deadline); i++ {
		e := &env{db: db, seed: seed}
		if traced && i%2 == 0 {
			e.tr = tr
			tr.iter = i
		}
		runtime.GC()
		calib := calibrate()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		gc0, cpu0 := gcSample(), cpuSeconds()
		t0 := time.Now()
		root := e.tr.begin(rootSpan)
		o, err := w.run(e)
		e.tr.end(root)
		wall := time.Since(t0).Seconds()
		gc1, cpu1 := gcSample(), cpuSeconds()
		runtime.ReadMemStats(&m1)

		rr.Attempted++
		switch {
		case err == nil && refErr == nil && o.digest() != rr.Digest:
			err = fmt.Errorf("iteration %d: output digest %s differs from the first iteration's %s", i, o.digest(), rr.Digest)
		case err == nil:
			err = refErr
		}
		if err != nil {
			rr.Failed++
			if len(rr.Failures) < maxFailures && !slices.Contains(rr.Failures, err.Error()) {
				rr.Failures = append(rr.Failures, err.Error())
			}
		}
		if e.tr == nil {
			rr.Walls = append(rr.Walls, wall)
			rr.Calib = append(rr.Calib, calib)
			rr.Allocs = append(rr.Allocs, m1.Mallocs-m0.Mallocs)
			rr.Bytes = append(rr.Bytes, m1.TotalAlloc-m0.TotalAlloc)
			continue
		}
		rr.TracedWalls = append(rr.TracedWalls, wall)
		rr.TracedCalib = append(rr.TracedCalib, calib)
		rr.Counts.add(e.n)
		rr.GCCPUs += gc1.cpu - gc0.cpu
		rr.GCCycles += gc1.cycles - gc0.cycles
		rr.BusyCPUs += cpu1 - cpu0
	}
	if traced {
		rr.Layers.addSpans(tr.spans)
		// Iterations run in order, so their spans form prefixes.
		keep := slices.IndexFunc(tr.spans, func(s span) bool { return s.Iter >= 2*tracedIterationsKept })
		if keep < 0 {
			keep = len(tr.spans)
		}
		rr.Spans = tr.spans[:keep]
	}
	rr.MaxRSSMiB = maxRSSMiB()
	return rr, nil
}

type gcStat struct {
	cpu    float64 // GC CPU seconds, as the runtime estimates them at the end of each cycle
	cycles uint64
}

func gcSample() gcStat {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return gcStat{cpu: s[0].Value.Float64(), cycles: s[1].Value.Uint64()}
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// maxRSSMiB is the process's peak resident set (Linux reports KiB).
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
