package main

import (
	"encoding/json"
	"errors"
	"io/fs"
	"math"
	"os"
	"regexp"
	"testing"

	"lupine/internal/kerneldb"
)

// TestWorkloads runs one iteration of each workload at the pinned seed,
// untraced and traced, and one at a held-out seed.
func TestWorkloads(t *testing.T) {
	db := kerneldb.MustLoad()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain := &env{db: db, seed: pinnedSeed}
			o, err := w.run(plain)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkOutput(w.name, pinnedSeed, o); err != nil {
				t.Fatal(err)
			}
			p := pinned[w.name]
			if o.events != p.events {
				t.Errorf("events %d, pinned %d", o.events, p.events)
			}
			for name, want := range p.hero {
				if got := o.hero[name]; got != want {
					t.Errorf("%s %g, pinned %g", name, got, want)
				}
			}
			checkShipped(t, w.name, o)

			tr := newTracer()
			traced := &env{db: db, seed: pinnedSeed, tr: tr}
			root := tr.begin(rootSpan)
			to, err := w.run(traced)
			tr.end(root)
			if err != nil {
				t.Fatal(err)
			}
			if to.digest() != o.digest() || traced.n != plain.n {
				t.Errorf("traced iteration differs: digest %s vs %s, counts %+v vs %+v", to.digest(), o.digest(), traced.n, plain.n)
			}

			if p.seedFree {
				return
			}
			const heldOut = 7
			ho, err := w.run(&env{db: db, seed: heldOut})
			if err != nil {
				t.Fatal(err)
			}
			if err := checkOutput(w.name, heldOut, ho); err != nil {
				t.Fatal(err)
			}
			if ho.digest() == o.digest() {
				t.Errorf("seed %d gives the same outputs as seed %d", heldOut, pinnedSeed)
			}
		})
	}
}

// checkShipped compares a storm's events and hero fields with the last
// row of the BENCH_<workload>.json trajectory the experiments wrote at
// seed 42: the benchmark must replay the same traffic.
func checkShipped(t *testing.T, name string, o *output) {
	data, err := os.ReadFile("../BENCH_" + name + ".json")
	if errors.Is(err, fs.ErrNotExist) {
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		Events       float64  `json:"events"`
		Availability float64  `json:"availability"`
		P99us        *float64 `json:"p99_us"`
		DetectP99us  *float64 `json:"detect_p99_us"`
		HitRate      *float64 `json:"hit_rate"`
	}
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	last := rows[len(rows)-1]
	if math.Abs(float64(o.events)-last.Events) > 0.1*last.Events {
		t.Errorf("events %d, shipped %g (more than 10%% apart)", o.events, last.Events)
	}
	if av := o.hero["availability"]; math.Abs(av-last.Availability) > 0.01 {
		t.Errorf("availability %g, shipped %g", av, last.Availability)
	}
	for k, want := range map[string]*float64{"p99_us": last.P99us, "detect_p99_us": last.DetectP99us, "hit_rate": last.HitRate} {
		if got, ok := o.hero[k]; ok && want != nil && got != *want {
			t.Errorf("%s %g, shipped %g", k, got, *want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100) holds a [10,40) and b [50,90); a holds c [15,25).
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "c", Parent: 1, Start: 15, End: 25},
		{Name: "b", Parent: 0, Start: 50, End: 90},
	}
	want := []int64{30, 20, 10, 40}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	r := tr.begin("root")
	a := tr.beginAllocs("a")
	_ = make([]byte, 1<<10)
	tr.end(a)
	b := tr.begin("b")
	tr.endAs(b, "b2")
	tr.end(r)
	if tr.spans[a].Parent != r || tr.spans[b].Parent != r || tr.spans[b].Name != "b2" {
		t.Errorf("spans %+v", tr.spans)
	}
	if tr.spans[a].Allocs < 0 || tr.spans[b].Allocs != -1 {
		t.Errorf("allocs a=%d b=%d", tr.spans[a].Allocs, tr.spans[b].Allocs)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x"))
}

// TestMetricNames checks that summarize prints exactly the metrics
// BENCHMARK.json declares, with the declared units and directions.
func TestMetricNames(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []boundDef              `json:"end_to_end"`
		PerLayer  []boundDef              `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if _, err := lookupWorkload(w.Name); err != nil || workloads[i].name != w.Name {
			t.Errorf("workload %d: %q", i, w.Name)
		}
	}
	rr := &roundResult{
		Walls: []float64{1, 2}, Calib: []float64{calibRef, calibRef},
		TracedWalls: []float64{1}, TracedCalib: []float64{calibRef},
		Allocs: []uint64{1, 1}, Bytes: []uint64{1, 1}, Events: 1, Layers: newLayerSums(),
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, c := range []struct {
		traced bool
		defs   []metricDef
		json   []boundDef
	}{{false, endToEnd, b.EndToEnd}, {true, perLayer, b.PerLayer}} {
		res := summarize([]*roundResult{rr}, c.traced)
		if len(res.Metrics) != len(c.json) || len(c.defs) != len(c.json) {
			t.Errorf("traced=%v: %d printed, %d defined, %d in BENCHMARK.json", c.traced, len(res.Metrics), len(c.defs), len(c.json))
		}
		for i, j := range c.json {
			m, ok := res.Metrics[j.Name]
			if !ok || !valid.MatchString(j.Name) || m.Unit != j.Unit || math.IsNaN(m.Value) {
				t.Errorf("metric %q: printed %v (%+v)", j.Name, ok, m)
			}
			if i < len(c.defs) && (c.defs[i].name != j.Name || c.defs[i].higher != (j.Better == "higher")) {
				t.Errorf("metric %d: defined %+v, BENCHMARK.json %+v", i, c.defs[i], j)
			}
		}
	}
}

// TestQuartiles pins the method to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + d
		}
		return out
	}
	noisy := []float64{50, 150, 60, 140, 100, 100, 70, 130, 90, 110}
	for _, c := range []struct {
		name           string
		parent, change []float64
		higher         bool
		want           string
	}{
		{"faster", base, shift(-10), false, "better"},
		{"same", base, shift(0), false, "unchanged"},
		{"slightly slower", base, shift(3), false, "unchanged"},
		{"slower", base, shift(10), false, "worse"},
		{"higher is better", base, shift(10), true, "better"},
		{"noisy parent", noisy, base, false, "unresolved"},
	} {
		if got := verdict(c.parent, c.change, c.higher, 0.05); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
