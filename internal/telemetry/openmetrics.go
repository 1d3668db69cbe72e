package telemetry

// OpenMetrics text exposition for the registry: the same snapshot JSON()
// exports, rendered in the format Prometheus-family scrapers ingest.
// Everything here is deterministic — metrics sort by name within kind,
// numbers format via strconv — so two same-seed runs expose
// byte-identical text, which TestWatchingDoesNotChangeStorms in
// internal/experiments pins by sha256 the same way it pins traces.

import (
	"strconv"
	"strings"
)

// sanitizeMetricName maps a registry name (tracks contain '/', '.', '+',
// '-') onto the OpenMetrics name charset [a-zA-Z0-9_:], collapsing every
// other rune to '_' and prefixing names that would start with a digit.
func sanitizeMetricName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if ok {
			b.WriteRune(r)
		} else if r >= '0' && r <= '9' { // leading digit
			b.WriteByte('_')
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// fmtFloat renders a float the OpenMetrics way: shortest round-trip
// representation, deterministic for a given value.
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// OpenMetrics renders the registry as OpenMetrics text exposition.
// Counters gain the _total suffix, histograms expose cumulative le
// buckets at the log2 upper edges (in seconds — durations are virtual
// nanoseconds internally), and the body ends with the mandatory # EOF
// terminator. A nil registry exposes only the terminator.
func (r *Registry) OpenMetrics() []byte {
	var b strings.Builder
	if r != nil {
		r.mu.Lock()
		counters, hists := r.sortedNames()
		for _, n := range counters {
			m := sanitizeMetricName(n)
			b.WriteString("# TYPE " + m + " counter\n")
			b.WriteString(m + "_total " + strconv.FormatInt(r.counters[n].Value(), 10) + "\n")
		}
		for _, n := range hists {
			m := sanitizeMetricName(n)
			zero, buckets, count := r.hists[n].Snapshot()
			b.WriteString("# TYPE " + m + " histogram\n")
			b.WriteString("# UNIT " + m + " seconds\n")
			cum := zero
			// The zero bucket is everything <= 0 ns; it folds into the
			// first populated le edge. Only populated buckets print —
			// 64 octaves of zeros per histogram is noise, and the
			// cumulative form stays valid when edges are skipped.
			for i := range buckets {
				if buckets[i] == 0 {
					continue
				}
				cum += buckets[i]
				edge := float64(int64(1)<<(uint(i)+1)-1) / 1e9
				b.WriteString(m + `_bucket{le="` + fmtFloat(edge) + `"} ` +
					strconv.FormatInt(cum, 10) + "\n")
			}
			b.WriteString(m + `_bucket{le="+Inf"} ` + strconv.FormatInt(count, 10) + "\n")
			b.WriteString(m + "_sum " + fmtFloat(float64(r.hists[n].Sum())/1e9) + "\n")
			b.WriteString(m + "_count " + strconv.FormatInt(count, 10) + "\n")
		}
		r.mu.Unlock()
	}
	b.WriteString("# EOF\n")
	return []byte(b.String())
}
