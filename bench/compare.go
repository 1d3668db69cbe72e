package main

// -compare: two sets of runs, the parent's and a change's, read from
// files -out wrote. For each workload and end-to-end metric it prints
// both medians and quartiles and a verdict, using the bounds in
// BENCHMARK.json:
//
//   - better: at least ten pairs, the change wins at least nine tenths
//     of them (ties count for neither), and the medians differ by more
//     than the distance between the parent's quartiles;
//   - unresolved: the parent's own quartile spread is wider than the
//     bound, unless every change run reads better than every parent run
//     (then unchanged);
//   - worse: the change's median is worse than the parent's by more
//     than the bound;
//   - unchanged: otherwise.
//
// Runs pair up in file order within each workload, so alternate the two
// commits when making them.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadBounds reads the end-to-end metrics from BENCHMARK.json, found
// in the working directory or its parent (when run from bench/).
func loadBounds() ([]boundDef, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var b struct {
			EndToEnd []boundDef `json:"end_to_end"`
		}
		if err := json.Unmarshal(data, &b); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return b.EndToEnd, nil
	}
	return nil, firstErr
}

func compareFiles(parentPath, changePath string, stdout, stderr io.Writer) int {
	bounds, err := loadBounds()
	if err != nil {
		fmt.Fprintln(stderr, "bench: reading bounds:", err)
		return 1
	}
	parent, err := readRecords(parentPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	change, err := readRecords(changePath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%-11s %-18s %5s %12s %12s %12s   %12s %12s %12s  %8s  %s\n",
		"workload", "metric", "pairs", "parent q1", "median", "q3", "change q1", "median", "q3", "delta", "verdict")
	for _, w := range workloads {
		for _, b := range bounds {
			p, c := metricValues(parent, w.name, b.Name), metricValues(change, w.name, b.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			pq1, pq3 := quartiles(p)
			cq1, cq3 := quartiles(c)
			pm, cm := median(p), median(c)
			fmt.Fprintf(stdout, "%-11s %-18s %5d %12.6g %12.6g %12.6g   %12.6g %12.6g %12.6g  %+7.2f%%  %s\n",
				w.name, b.Name, min(len(p), len(c)), pq1, pm, pq3, cq1, cm, cq3, 100*ratio(cm-pm, pm),
				verdict(p, c, b.Better == "higher", b.Bound))
		}
	}
	return 0
}

// metricValues is one metric of one workload across untraced runs, in
// file order.
func metricValues(recs []record, workload, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if v, ok := r.Result.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
			out = append(out, v.Value)
		}
	}
	return out
}

func verdict(p, c []float64, higher bool, bound float64) string {
	better := func(x, y float64) bool { return (higher && x > y) || (!higher && x < y) }
	pm, cm := median(p), median(c)
	q1, q3 := quartiles(p)
	pairs, wins := min(len(p), len(c)), 0
	for i := 0; i < pairs; i++ {
		if better(c[i], p[i]) {
			wins++
		}
	}
	if pairs >= 10 && float64(wins) >= 0.9*float64(pairs) && better(cm, pm) && math.Abs(cm-pm) > q3-q1 {
		return "better"
	}
	if ratio(q3-q1, pm) > bound {
		worstChange, bestParent := slices.Max(c), slices.Min(p)
		if higher {
			worstChange, bestParent = slices.Min(c), slices.Max(p)
		}
		if better(worstChange, bestParent) {
			return "unchanged"
		}
		return "unresolved"
	}
	worse := ratio(cm-pm, pm)
	if higher {
		worse = -worse
	}
	if worse > bound {
		return "worse"
	}
	return "unchanged"
}
