// Command lupine-bench runs the paper-reproduction experiments and prints
// the corresponding tables and figure series.
//
// Usage:
//
//	lupine-bench -list
//	lupine-bench -list-apps
//	lupine-bench -list-faults
//	lupine-bench [-run id[,id...]]   (default: all)
//	lupine-bench -json [-run id[,id...]]
//	lupine-bench -run memstorm -trace-out=trace.json -metrics-out=metrics.json
//	lupine-bench -csv=out/ [-run id[,id...]]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"lupine/internal/apps"
	"lupine/internal/experiments"
	"lupine/internal/faults"
	"lupine/internal/metrics"
	"lupine/internal/slo"
	"lupine/internal/telemetry"
)

func main() {
	list := flag.Bool("list", false, "list available experiments")
	listApps := flag.Bool("list-apps", false, "list the application catalog the pipeline can build")
	listFaults := flag.Bool("list-faults", false, "list registered fault-injection sites")
	run := flag.String("run", "", "comma-separated experiment ids (default all)")
	csvDir := flag.String("csv", "", "write each table as <dir>/<id>.csv (for plotting)")
	jsonOut := flag.Bool("json", false, "emit results as a JSON array (machine-readable)")
	seed := flag.Uint64("seed", 42, "seed for every fault storm (chaos, fleetchaos, surge, memstorm, netsplit, regionfail, catalog, breach)")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON of the runs (load in Perfetto or chrome://tracing)")
	metricsOut := flag.String("metrics-out", "", "write the telemetry metrics registry as JSON (plus an OpenMetrics sibling at <path>.prom)")
	sloOut := flag.String("slo-out", "", "write the per-experiment SLO reports (objectives, burns, alerts, incidents) as JSON")
	flight := flag.Bool("flight", false, "print flight-recorder crash dumps after the runs")
	benchOut := flag.String("bench-out", "", "run the -bench storm and append a wall-clock bench record to this JSON file")
	bench := flag.String("bench", "netsplit", "which storm -bench-out samples: netsplit, regionfail, catalog, or breach")
	flag.Parse()

	// The telemetry plane is off (nil) unless an output asks for it, so
	// plain runs keep the zero-cost disabled path. Every run's Env shares
	// the one plane, so the exports cover all selected experiments.
	var tracer *telemetry.Tracer
	var registry *telemetry.Registry
	if *traceOut != "" || *flight {
		tracer = telemetry.New()
		tracer.SetFlight(telemetry.NewRecorder(0))
	}
	if *metricsOut != "" {
		registry = telemetry.NewRegistry()
	}
	newEnv := func() *experiments.Env {
		return &experiments.Env{Seed: *seed, Trace: tracer, Metrics: registry}
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return
	}

	if *listApps {
		// The same registry the bunny pipeline and the catalog experiment
		// build from: Table 2's top-20 images, ordered by pulls.
		fmt.Printf("%-12s %10s %6s %8s\n", "app", "downloads", "port", "options")
		for _, a := range apps.Registry() {
			port := "-"
			if a.Port != 0 {
				port = fmt.Sprintf("%d", a.Port)
			}
			fmt.Printf("%-12s %9.1fB %6s %8d\n", a.Name, a.DownloadsBillions, port, len(a.Options))
		}
		return
	}

	if *listFaults {
		// Importing the experiments package pulls in every subsystem, so
		// the registry holds all sites a plan can arm. Sites print grouped
		// by subsystem; scripts/check.sh counts the indented site lines
		// against RegisterSite calls, so every site stays discoverable.
		subsystem := ""
		for _, s := range faults.Sites() {
			if s.Subsystem != subsystem {
				if subsystem != "" {
					fmt.Println()
				}
				subsystem = s.Subsystem
				fmt.Printf("%s:\n", subsystem)
			}
			fmt.Printf("  %-26s %s\n", s.Name, s.Doc)
		}
		return
	}

	if *benchOut != "" {
		if err := writeBenchRecord(*benchOut, *bench, newEnv()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	var selected []experiments.Experiment
	if *run == "" {
		selected = experiments.All()
	} else {
		// Stray commas ("chaos,", ",,surge") are noise, not ids — skip
		// them; an all-noise selector is an error, with the same valid-id
		// listing Lookup gives for a typo.
		for _, id := range strings.Split(*run, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			e, err := experiments.Lookup(id)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
		if len(selected) == 0 {
			fmt.Fprintf(os.Stderr, "-run selects no experiments (try: %v)\n", experiments.IDs())
			os.Exit(2)
		}
	}

	failed := 0
	var records []jsonRecord
	reports := map[string]*slo.Report{}
	for _, e := range selected {
		start := time.Now()
		env := newEnv()
		out, err := e.Run(env)
		if env.SLO != nil {
			reports[e.ID] = env.SLO
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: FAILED: %v\n", e.ID, err)
			failed++
			continue
		}
		if *jsonOut {
			records = append(records, newJSONRecord(e, out))
			continue
		}
		if *csvDir != "" {
			if err := writeCSV(*csvDir, e.ID, out); err != nil {
				fmt.Fprintf(os.Stderr, "%s: writing CSV: %v\n", e.ID, err)
				failed++
			}
			continue
		}
		fmt.Printf("# %s — %s (wall %.1fs)\n\n%s\n", e.ID, e.Title,
			time.Since(start).Seconds(), out)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(records); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *traceOut != "" {
		b := tracer.ChromeTrace()
		if !json.Valid(b) {
			fmt.Fprintln(os.Stderr, "trace-out: export is not valid JSON")
			os.Exit(1)
		}
		if err := os.WriteFile(*traceOut, b, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *metricsOut != "" {
		if err := os.WriteFile(*metricsOut, registry.JSON(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		// The OpenMetrics sibling: the same registry in text exposition
		// format, for anything that scrapes rather than parses JSON.
		if err := os.WriteFile(*metricsOut+".prom", registry.OpenMetrics(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *sloOut != "" {
		if err := writeSLOReports(*sloOut, reports); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *flight {
		for _, d := range tracer.Flight().Dumps() {
			fmt.Print(d)
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// benchRecord is one wall-clock trajectory sample scripts/check.sh
// lands in BENCH_<storm>.json: how fast the event engine chews through
// the storm on this machine, plus the headline results so a perf
// regression that changes behavior is visible in the same file. The
// file holds a JSON array and every run appends, so the trajectory
// accumulates instead of each run clobbering the last.
type benchRecord struct {
	Experiment      string  `json:"experiment"`
	When            string  `json:"when"`
	Seed            uint64  `json:"seed"`
	Events          int     `json:"events"`
	WallSeconds     float64 `json:"wall_seconds"`
	EventsPerSec    float64 `json:"events_per_sec"`
	Availability    float64 `json:"availability"`            // headline lupine+mp row
	P99Micros       float64 `json:"p99_us,omitempty"`        // netsplit: served p99 virtual latency
	DetectP99Micros float64 `json:"detect_p99_us,omitempty"` // regionfail: failover detection p99
	HitRate         float64 `json:"hit_rate,omitempty"`      // catalog: redeploy artifact-cache hit rate
	Containment     float64 `json:"containment,omitempty"`   // breach: hardened-row contained/compromised

	// Engine self-observability (ROADMAP item 2's baseline): how much
	// the event engine allocates per virtual event, sampled around the
	// storm with runtime.ReadMemStats.
	AllocsPerEvent float64 `json:"allocs_per_event,omitempty"`
	BytesPerEvent  float64 `json:"bytes_per_event,omitempty"`
}

// readBenchRecords loads the existing trajectory. A missing file is an
// empty trajectory; anything but a JSON array of records is an error.
func readBenchRecords(path string) ([]benchRecord, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var recs []benchRecord
	if err := json.Unmarshal(b, &recs); err != nil {
		return nil, fmt.Errorf("bench-out: %s is not a JSON array of bench records: %w", path, err)
	}
	return recs, nil
}

func writeBenchRecord(path, bench string, env *experiments.Env) error {
	recs, err := readBenchRecords(path)
	if err != nil {
		return err
	}
	rec := benchRecord{
		Experiment: bench,
		When:       time.Now().UTC().Format(time.RFC3339),
		Seed:       env.Seed,
	}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	sum, err := experiments.Bench(bench, env)
	if err != nil {
		return fmt.Errorf("bench-out: %w", err)
	}
	rec.WallSeconds = time.Since(start).Seconds()
	rec.Events, rec.Availability = sum.Events, sum.Availability
	rec.P99Micros, rec.DetectP99Micros = sum.P99Micros, sum.DetectP99Micros
	rec.HitRate, rec.Containment = sum.HitRate, sum.Containment
	rec.EventsPerSec = float64(rec.Events) / rec.WallSeconds
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if rec.Events > 0 {
		rec.AllocsPerEvent = float64(after.Mallocs-before.Mallocs) / float64(rec.Events)
		rec.BytesPerEvent = float64(after.TotalAlloc-before.TotalAlloc) / float64(rec.Events)
	}
	recs = append(recs, rec)
	b, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// writeSLOReports lands every run experiment's SLO report — sorted by
// experiment id, indented, newline-terminated — so two same-seed runs
// write byte-identical files.
func writeSLOReports(path string, byID map[string]*slo.Report) error {
	if len(byID) == 0 {
		return fmt.Errorf("slo-out: no experiments ran, nothing to report")
	}
	reps := make([]*slo.Report, 0, len(byID))
	for _, r := range byID {
		reps = append(reps, r)
	}
	sort.Slice(reps, func(i, j int) bool { return reps[i].Experiment < reps[j].Experiment })
	b, err := json.MarshalIndent(reps, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// writeCSV lands one experiment's table (or figure) as <dir>/<id>.csv.
func writeCSV(dir, id string, out fmt.Stringer) error {
	var csv string
	switch v := out.(type) {
	case *metrics.Table:
		csv = v.CSV()
	case *metrics.Figure:
		csv = v.CSV()
	default:
		return fmt.Errorf("result has no tabular form")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, id+".csv"), []byte(csv), 0o644)
}

// jsonRecord is one experiment's machine-readable result: tables and
// figures marshal structurally, anything else degrades to its rendering.
type jsonRecord struct {
	ID     string          `json:"id"`
	Title  string          `json:"title"`
	Table  *metrics.Table  `json:"table,omitempty"`
	Figure *metrics.Figure `json:"figure,omitempty"`
	Text   string          `json:"text,omitempty"`
}

func newJSONRecord(e experiments.Experiment, out fmt.Stringer) jsonRecord {
	rec := jsonRecord{ID: e.ID, Title: e.Title}
	switch v := out.(type) {
	case *metrics.Table:
		rec.Table = v
	case *metrics.Figure:
		rec.Figure = v
	default:
		rec.Text = out.String()
	}
	return rec
}
