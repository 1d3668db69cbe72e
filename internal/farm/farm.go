// Package farm is the virtual-time parallel build farm over the bunny
// pipeline: a bounded pool of workers drains a FIFO batch of specs with
// deterministic greedy list scheduling (each job goes to the
// earliest-free worker, ties to the lowest index). Build durations come
// from the pipeline's priced cost model — a cache hit is a fetch, a
// rebuild is a kernel compile — so the farm's makespan measures what
// the content-addressed cache actually buys over serial specialization
// of the whole catalog.
package farm

import (
	"fmt"

	"lupine/internal/bunny"
	"lupine/internal/core"
	"lupine/internal/faults"
	"lupine/internal/simclock"
	"lupine/internal/telemetry"
)

// Build is one finished job: the artifact plus its schedule.
type Build struct {
	Artifact *bunny.Artifact
	Worker   int
	Start    simclock.Time
	End      simclock.Time
}

// Result is a drained batch.
type Result struct {
	Builds   []Build           // one per spec, batch order
	Makespan simclock.Duration // wall-clock across the worker pool
	Serial   simclock.Duration // sum of build costs: the one-worker wall-clock
	Stats    bunny.CacheStats  // artifact-cache ledger delta for the batch
	Kernels  core.CacheStats   // kernel-cache ledger delta for the batch
}

// Speedup is the parallel speedup the pool achieved over serial.
func (r *Result) Speedup() float64 {
	if r.Makespan == 0 {
		return 1
	}
	return float64(r.Serial) / float64(r.Makespan)
}

// String renders the one-line batch summary.
func (r *Result) String() string {
	return fmt.Sprintf("farm: %d builds, hit rate %.0f%%, makespan %v vs serial %v (%.1fx)",
		len(r.Builds), 100*r.Stats.HitRate(), r.Makespan, r.Serial, r.Speedup())
}

// Farm schedules batches onto a bounded worker pool.
type Farm struct {
	cache   *bunny.Cache
	workers int
	inj     *faults.Injector // optional
	tr      *telemetry.Tracer
	reg     *telemetry.Registry
}

// New returns a farm of the given width over the build cache. workers
// is clamped to at least 1; inj, tr and reg may be nil.
func New(cache *bunny.Cache, workers int, inj *faults.Injector, tr *telemetry.Tracer, reg *telemetry.Registry) *Farm {
	if workers < 1 {
		workers = 1
	}
	return &Farm{cache: cache, workers: workers, inj: inj, tr: tr, reg: reg}
}

// Run drains the batch starting at start and returns the schedule. The
// batch is FIFO: spec i never starts after spec i+1. Compilation is
// virtual — the farm calls Compile at each job's scheduled start time
// (so seeded fault windows see the schedule) and advances the worker by
// the priced cost.
func (f *Farm) Run(specs []*bunny.Spec, start simclock.Time) (*Result, error) {
	free := make([]simclock.Time, f.workers)
	for i := range free {
		free[i] = start
	}
	stats0 := f.cache.Stats()
	kern0 := f.cache.Kernels().CacheStats()

	res := &Result{Builds: make([]Build, 0, len(specs))}
	end := start
	for _, s := range specs {
		w := 0
		for i := 1; i < f.workers; i++ {
			if free[i] < free[w] {
				w = i
			}
		}
		at := free[w]
		art, err := f.cache.Compile(s, f.inj, at)
		if err != nil {
			return nil, fmt.Errorf("farm: %s: %w", s.App, err)
		}
		done := at + simclock.Time(art.Cost)
		free[w] = done
		if done > end {
			end = done
		}
		res.Builds = append(res.Builds, Build{Artifact: art, Worker: w, Start: at, End: done})
		res.Serial += art.Cost

		if f.tr != nil {
			verdict := "build"
			switch {
			case art.CacheHit:
				verdict = "cache-hit"
			case art.Rebuilt != "":
				verdict = "rebuild:" + art.Rebuilt
			case art.KernelShared:
				verdict = "kernel-shared"
			}
			f.tr.Span("farm", fmt.Sprintf("farm/worker%d", w), "compile "+s.App, at, done,
				telemetry.A("digest", art.Digest),
				telemetry.A("verdict", verdict),
				telemetry.A("profile", s.Profile))
		}
		f.reg.Counter("farm.builds").Inc()
		if art.CacheHit {
			f.reg.Counter("farm.cache_hits").Inc()
		}
		if art.Rebuilt != "" {
			f.reg.Counter("farm.fault_rebuilds").Inc()
		}
	}
	res.Makespan = simclock.Duration(end - start)
	sa, ka := f.cache.Stats(), f.cache.Kernels().CacheStats()
	res.Stats = bunny.CacheStats{
		Hits:            sa.Hits - stats0.Hits,
		Misses:          sa.Misses - stats0.Misses,
		Evictions:       sa.Evictions - stats0.Evictions,
		CorruptRebuilds: sa.CorruptRebuilds - stats0.CorruptRebuilds,
		InvalidRetries:  sa.InvalidRetries - stats0.InvalidRetries,
	}
	res.Kernels = core.CacheStats{
		Builds: ka.Builds - kern0.Builds,
		Hits:   ka.Hits - kern0.Hits,
		Misses: ka.Misses - kern0.Misses,
	}
	return res, nil
}
