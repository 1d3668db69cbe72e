package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"lupine/internal/simclock"
)

func buildRegistry() *Registry {
	r := NewRegistry()
	r.Counter("fleet/pool.served").Add(120)
	r.Counter("fleet/pool.shed").Add(3)
	h := r.Histogram("fleet/pool.latency")
	h.Observe(0)
	h.Observe(150 * simclock.Microsecond)
	h.Observe(150 * simclock.Microsecond)
	h.Observe(3 * simclock.Millisecond)
	return r
}

func TestOpenMetricsShape(t *testing.T) {
	out := string(buildRegistry().OpenMetrics())
	for _, want := range []string{
		"# TYPE fleet_pool_served counter\n",
		"fleet_pool_served_total 120\n",
		"fleet_pool_shed_total 3\n",
		"# TYPE fleet_pool_latency histogram\n",
		`fleet_pool_latency_bucket{le="+Inf"} 4` + "\n",
		"fleet_pool_latency_count 4\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatalf("exposition does not end with # EOF:\n%s", out)
	}
	// Cumulative le buckets: the zero sample folds into the first
	// populated edge, and counts never decrease.
	last := int64(-1)
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "fleet_pool_latency_bucket") {
			continue
		}
		var v int64
		for i := len(line) - 1; i >= 0; i-- {
			if line[i] == ' ' {
				for _, c := range line[i+1:] {
					v = v*10 + int64(c-'0')
				}
				break
			}
		}
		if v < last {
			t.Fatalf("bucket counts not cumulative:\n%s", out)
		}
		last = v
	}
}

func TestOpenMetricsDeterministic(t *testing.T) {
	a := buildRegistry().OpenMetrics()
	b := buildRegistry().OpenMetrics()
	if !bytes.Equal(a, b) {
		t.Fatalf("same registry, different exposition:\n%s\n---\n%s", a, b)
	}
}

func TestOpenMetricsNilRegistry(t *testing.T) {
	var r *Registry
	if got := string(r.OpenMetrics()); got != "# EOF\n" {
		t.Fatalf("nil registry exposition = %q, want just the terminator", got)
	}
}

func TestSanitizeMetricName(t *testing.T) {
	cases := map[string]string{
		"memstorm/lupine+mp.served": "memstorm_lupine_mp_served",
		"9lives":                    "_9lives",
		"ok_name:sub":               "ok_name:sub",
	}
	for in, want := range cases {
		if got := sanitizeMetricName(in); got != want {
			t.Fatalf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}
