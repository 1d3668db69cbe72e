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

// storms lists the experiments that take -seed and leave an SLO report.
var storms = strings.Join(experiments.Storms(), ", ")

func main() {
	list := flag.Bool("list", false, "list available experiments")
	listApps := flag.Bool("list-apps", false, "list the application catalog the pipeline can build")
	listFaults := flag.Bool("list-faults", false, "list registered fault-injection sites")
	run := flag.String("run", "", "comma-separated experiment ids (default all)")
	csvDir := flag.String("csv", "", "write each table as <dir>/<id>.csv (for plotting)")
	jsonOut := flag.Bool("json", false, "emit results as a JSON array (machine-readable)")
	seed := flag.Uint64("seed", 42, "seed for every fault storm ("+storms+")")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON of the runs (load in Perfetto or chrome://tracing)")
	metricsOut := flag.String("metrics-out", "", "write the telemetry metrics registry as JSON (plus an OpenMetrics sibling at <path>.prom)")
	sloOut := flag.String("slo-out", "", "write the per-experiment SLO reports (objectives, burns, alerts, incidents) as JSON")
	flight := flag.Bool("flight", false, "print flight-recorder crash dumps after the runs")
	flag.Parse()

	// The telemetry plane is off (nil) unless an output asks for it, so
	// plain runs keep the zero-cost disabled path. Every run's Env shares
	// the one plane, so the exports cover all selected experiments.
	var tracer *telemetry.Tracer
	var registry *telemetry.Registry
	if *traceOut != "" || *flight {
		tracer = telemetry.New()
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
		for _, d := range tracer.Dumps() {
			fmt.Print(d)
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// writeSLOReports lands every run experiment's SLO report — sorted by
// experiment id, indented, newline-terminated — so two same-seed runs
// write byte-identical files.
func writeSLOReports(path string, byID map[string]*slo.Report) error {
	if len(byID) == 0 {
		return fmt.Errorf("slo-out: none of the selected experiments produces an SLO report; the storms do: %s", storms)
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
