package telemetry

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"lupine/internal/metrics"
	"lupine/internal/simclock"
)

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("fleet.served")
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Fatalf("counter = %d", c.Value())
	}
	if r.Counter("fleet.served") != c {
		t.Fatal("get-or-create returned a fresh counter")
	}
	h := r.Histogram("fleet.latency")
	h.Observe(simclock.Duration(1000))
	if h.Count() != 1 || h.Sum() != 1000 {
		t.Fatalf("hist count/sum = %d/%d", h.Count(), h.Sum())
	}
}

func TestNilRegistryAndHandles(t *testing.T) {
	var r *Registry
	c, h := r.Counter("x"), r.Histogram("z")
	if c != nil || h != nil {
		t.Fatal("nil registry handed out live handles")
	}
	c.Inc()
	c.Add(5)
	h.Observe(100)
	if c.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Percentile(50) != 0 {
		t.Fatal("nil handles recorded state")
	}
	if got, want := string(r.JSON()), "{\n  \"counters\": [],\n  \"gauges\": [],\n  \"histograms\": []\n}\n"; got != want {
		t.Fatalf("nil registry JSON = %q, want %q", got, want)
	}
}

// TestDisabledRegistryZeroAlloc pins the hot-path contract for the
// disabled plane: nil handles must not allocate.
func TestDisabledRegistryZeroAlloc(t *testing.T) {
	var c *Counter
	var h *Histogram
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		h.Observe(12345)
	})
	if allocs != 0 {
		t.Fatalf("nil handles allocated %.1f per op", allocs)
	}
}

// TestHistogramPercentileBound cross-checks the log2 histogram against
// metrics.Percentile on identical streams: the histogram answers at
// bucket resolution, so for an exact answer e > 0 the estimate must lie
// in [e, 2e) — one octave — and be exactly 0 when e <= 0. Property-style
// over several seeds and stream shapes.
func TestHistogramPercentileBound(t *testing.T) {
	quantiles := []float64{0, 10, 50, 90, 99, 100}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := &Histogram{}
		var exactIn []int64
		n := 200 + rng.Intn(800)
		for i := 0; i < n; i++ {
			var v int64
			switch rng.Intn(4) {
			case 0: // sub-microsecond
				v = rng.Int63n(1000)
			case 1: // microseconds
				v = rng.Int63n(1_000_000)
			case 2: // milliseconds
				v = rng.Int63n(1_000_000_000)
			default: // zero/negative tail
				v = -rng.Int63n(50)
			}
			h.Observe(simclock.Duration(v))
			exactIn = append(exactIn, v)
		}
		for _, q := range quantiles {
			exact := metrics.Percentile(exactIn, q)
			got := h.Percentile(q)
			if exact <= 0 {
				if got != 0 {
					t.Fatalf("seed %d q%.0f: exact %d but histogram answered %d", seed, q, exact, got)
				}
				continue
			}
			if got < exact || got >= 2*exact {
				t.Fatalf("seed %d q%.0f: exact %d, estimate %d outside [e, 2e)", seed, q, exact, got)
			}
		}
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	h := &Histogram{}
	// 1ns lands in bucket 0 = [1,2); its upper edge is 1.
	h.Observe(1)
	if got := h.Percentile(100); got != 1 {
		t.Fatalf("p100 of {1ns} = %d, want 1", got)
	}
	// 1024ns lands in bucket 10 = [1024,2048); upper edge 2047.
	h2 := &Histogram{}
	h2.Observe(1024)
	if got := h2.Percentile(50); got != 2047 {
		t.Fatalf("p50 of {1024ns} = %d, want 2047", got)
	}
}

func TestRegistryExportsDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("b.count").Add(2)
		r.Counter("a.count").Add(1)
		h := r.Histogram("lat")
		for i := 1; i <= 100; i++ {
			h.Observe(simclock.Duration(i * 1000))
		}
		return r
	}
	a, b := build(), build()
	if !bytes.Equal(a.JSON(), b.JSON()) {
		t.Fatal("identical registries exported different JSON")
	}
	if !json.Valid(a.JSON()) {
		t.Fatalf("invalid JSON: %s", a.JSON())
	}
	// Sorted by name within kind: a.count before b.count. The gauges
	// key stays, empty, so every export keeps its shape.
	var out struct {
		Counters   []struct{ Name string } `json:"counters"`
		Gauges     []struct{ Name string } `json:"gauges"`
		Histograms []struct{ Name string } `json:"histograms"`
	}
	if err := json.Unmarshal(a.JSON(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Counters) != 2 || out.Counters[0].Name != "a.count" || out.Counters[1].Name != "b.count" ||
		out.Gauges == nil || len(out.Gauges) != 0 || len(out.Histograms) != 1 {
		t.Fatalf("export order: %+v", out)
	}
}
