package telemetry

import (
	"encoding/json"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"lupine/internal/simclock"
)

// Registry is a get-or-create store of named counters and histograms.
// A nil Registry is the disabled plane: it hands out nil handles, and
// nil handles no-op, so instrumented code never branches on "is
// telemetry on".
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// NewRegistry returns an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing count. Nil counters no-op.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram accumulates virtual durations into fixed log2 buckets:
// bucket i counts samples in [2^i, 2^(i+1)) ns, with non-positive
// samples in a separate zero bucket. Recording is lock-free (one atomic
// add) so hot paths can observe concurrently.
//
// Resolution contract: Percentile answers with the upper edge of the
// bucket holding the nearest-rank sample, so for any exact nearest-rank
// answer e > 0 the estimate satisfies e <= estimate < 2*e (one octave),
// and is exactly 0 when e <= 0. The property test cross-checks this
// bound against metrics.Percentile on identical streams.
type Histogram struct {
	zero    atomic.Int64
	buckets [64]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one duration sample.
func (h *Histogram) Observe(d simclock.Duration) {
	if h == nil {
		return
	}
	if d <= 0 {
		h.zero.Add(1)
	} else {
		h.buckets[bits.Len64(uint64(d))-1].Add(1)
	}
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// Count reports the number of recorded samples (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the total of recorded samples in nanoseconds.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Snapshot copies the histogram's current bucket state: the zero-bucket
// count, the 64 log2 buckets (bucket i counts samples in [2^i, 2^(i+1))
// ns) and the total sample count. A nil histogram snapshots to zeros.
// Consumers diff two snapshots to window a live histogram — the SLO
// plane's rolling latency SLIs are built on exactly that.
func (h *Histogram) Snapshot() (zero int64, buckets [64]int64, count int64) {
	if h == nil {
		return 0, buckets, 0
	}
	zero = h.zero.Load()
	for i := range h.buckets {
		buckets[i] = h.buckets[i].Load()
	}
	return zero, buckets, h.count.Load()
}

// Percentile estimates the p-th percentile in nanoseconds using the
// same nearest-rank rule as metrics.Percentile, answered at bucket
// resolution: the upper edge 2^(i+1)-1 of the owning bucket (see the
// type comment for the error bound).
func (h *Histogram) Percentile(p float64) int64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := int64(p/100*float64(n) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	cum := h.zero.Load()
	if cum >= rank {
		return 0
	}
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= rank {
			return 1<<(uint(i)+1) - 1
		}
	}
	return 1<<63 - 1 // unreachable: count covers all buckets
}

// sortedNames orders each kind's metric names for export.
func (r *Registry) sortedNames() (counters, hists []string) {
	for n := range r.counters {
		counters = append(counters, n)
	}
	for n := range r.hists {
		hists = append(hists, n)
	}
	sort.Strings(counters)
	sort.Strings(hists)
	return
}

type histJSON struct {
	Name  string `json:"name"`
	Count int64  `json:"count"`
	SumNS int64  `json:"sum_ns"`
	P50NS int64  `json:"p50_ns"`
	P90NS int64  `json:"p90_ns"`
	P99NS int64  `json:"p99_ns"`
}

type scalarJSON struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// JSON exports the registry deterministically (metrics sorted by name).
// The "gauges" key stays, always empty, so every export keeps its shape.
func (r *Registry) JSON() []byte {
	out := struct {
		Counters   []scalarJSON `json:"counters"`
		Gauges     []scalarJSON `json:"gauges"`
		Histograms []histJSON   `json:"histograms"`
	}{Counters: []scalarJSON{}, Gauges: []scalarJSON{}, Histograms: []histJSON{}}
	if r != nil {
		r.mu.Lock()
		counters, hists := r.sortedNames()
		for _, n := range counters {
			out.Counters = append(out.Counters, scalarJSON{n, r.counters[n].Value()})
		}
		for _, n := range hists {
			h := r.hists[n]
			out.Histograms = append(out.Histograms, histJSON{
				Name: n, Count: h.Count(), SumNS: h.Sum(),
				P50NS: h.Percentile(50), P90NS: h.Percentile(90), P99NS: h.Percentile(99),
			})
		}
		r.mu.Unlock()
	}
	b, _ := json.MarshalIndent(out, "", "  ")
	return append(b, '\n')
}
