// Command bench is the simulator's benchmark: four workloads composed
// from the layers' public APIs, end-to-end host-time metrics from an
// untraced run and per-layer metrics from a traced one. See README.md.
//
//	bash bench/run.sh --workload netsplit --seed 42 --seconds 24 --trace 0
//	go run . -workload paper -trace 1            (from bench/)
//	go run . -compare parent.jsonl change.jsonl  (files written by -out)
//
// Each run splits its seconds across rounds, and each round is a fresh
// child process of this binary, run one at a time. The last line of
// standard output is the run's result as one JSON object.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// rounds is how many fresh processes share one run's measured seconds:
// enough that a median over them rejects one slow process.
const rounds = 4

func main() {
	start := time.Now()
	os.Exit(run(start, os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
	out      string
}

func run(start time.Time, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: netsplit, regionfail, catalog or paper (default: all, rounds interleaved)")
	seed := fs.Uint64("seed", pinnedSeed, "workload seed")
	seconds := fs.Float64("seconds", 24, "measured seconds per workload, split across rounds")
	trace := fs.Int("trace", 0, "1: traced run, reporting per-layer metrics instead of end-to-end ones")
	traceOut := fs.String("trace-out", "", "where a traced run writes its spans (default .bench_build/trace-<workload>-seed<seed>.json)")
	out := fs.String("out", "", "append one JSON record per workload to this file, for -compare")
	compare := fs.Bool("compare", false, "compare two -out files: -compare parent.jsonl change.jsonl")
	isChild := fs.Bool("child", false, "internal: measure one round in this process")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two files: parent.jsonl change.jsonl")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: usage: bench [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-out file]")
		return 2
	}
	opts := options{*workload, *seed, *seconds, *trace == 1, *traceOut, *out}
	if *isChild {
		return child(start, opts, stdout, stderr)
	}
	return parent(opts, stdout, stderr)
}

// child measures one round and prints it as one JSON line.
func child(start time.Time, opts options, stdout, stderr io.Writer) int {
	w, err := lookupWorkload(opts.workload)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	budget := time.Duration(opts.seconds * float64(time.Second))
	rr, err := measureRound(w, opts.seed, budget, opts.trace, start)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(rr); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// provenance is recorded with every result.
type provenance struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
}

func currentProvenance() provenance {
	return provenance{runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel()}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// record is one workload's run as -out appends it and -compare reads it.
type record struct {
	Workload   string     `json:"workload"`
	Seed       uint64     `json:"seed"`
	Trace      bool       `json:"trace"`
	Seconds    float64    `json:"seconds"`
	N          int        `json:"n"` // untraced iterations measured
	Provenance provenance `json:"provenance"`
	Result     result     `json:"result"`
}

func parent(opts options, stdout, stderr io.Writer) int {
	ws := workloads
	if opts.workload != "" {
		w, err := lookupWorkload(opts.workload)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		ws = []*workload{w}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	// Rounds are interleaved across workloads, so slow drift in the
	// host's speed spreads over all of them.
	results := map[string][]*roundResult{}
	for r := 0; r < rounds; r++ {
		for _, w := range ws {
			rr, err := runChild(exe, w.name, opts, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s round %d: %v\n", w.name, r, err)
				return 1
			}
			for _, f := range rr.Failures {
				fmt.Fprintf(stderr, "bench: %s round %d: FAILED: %s\n", w.name, r, f)
			}
			results[w.name] = append(results[w.name], rr)
		}
	}

	prov := currentProvenance()
	fmt.Fprintf(stdout, "go %s, GOMAXPROCS %d, nproc %d, cpu %q, seed %d, %d rounds\n",
		prov.GoVersion, prov.GOMAXPROCS, prov.NumCPU, prov.CPUModel, opts.seed, rounds)
	final := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range ws {
		rs := results[w.name]
		res := summarize(rs, opts.trace)
		if !res.Correct && res.Failed == 0 {
			fmt.Fprintf(stderr, "bench: %s: rounds disagree on the output digest\n", w.name)
		}
		rec := record{Workload: w.name, Seed: opts.seed, Trace: opts.trace, Seconds: opts.seconds, Provenance: prov, Result: res}
		for _, rr := range rs {
			rec.N += len(rr.Walls)
		}
		printWorkload(stdout, rec, rs)
		if opts.trace {
			if err := writeTrace(opts, w.name, rs); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
		if opts.out != "" {
			if err := appendRecord(opts.out, rec); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for name, v := range res.Metrics {
			if len(ws) > 1 {
				name = w.name + "." + name
			}
			final.Metrics[name] = v
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

// runChild measures one round of one workload in a fresh process and
// waits for it to exit.
func runChild(exe, name string, opts options, stderr io.Writer) (*roundResult, error) {
	trace := "0"
	if opts.trace {
		trace = "1"
	}
	cmd := exec.Command(exe,
		"-child",
		"-workload", name,
		"-seed", strconv.FormatUint(opts.seed, 10),
		"-seconds", strconv.FormatFloat(opts.seconds/rounds, 'g', -1, 64),
		"-trace", trace)
	cmd.Stderr = stderr
	data, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var rr roundResult
	if err := json.Unmarshal(data, &rr); err != nil {
		return nil, fmt.Errorf("reading the round's result: %w", err)
	}
	return &rr, nil
}

func printWorkload(w io.Writer, rec record, rs []*roundResult) {
	fmt.Fprintf(w, "%s: n=%d untraced iterations", rec.Workload, rec.N)
	if rec.Trace {
		var n int
		for _, rr := range rs {
			n += len(rr.TracedWalls)
		}
		fmt.Fprintf(w, ", %d traced", n)
	}
	fmt.Fprintf(w, ", %d failed of %d, digest %s, %d simulated events per iteration",
		rec.Result.Failed, rec.Result.Attempted, rs[0].Digest, rs[0].Events)
	var heroes []string
	for k, v := range rs[0].Hero {
		heroes = append(heroes, fmt.Sprintf(", %s %g", k, v))
	}
	sort.Strings(heroes)
	fmt.Fprint(w, strings.Join(heroes, ""))
	fmt.Fprintln(w)
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		v := rec.Result.Metrics[d.name]
		fmt.Fprintf(w, "  %-12s %-30s %16.6g %s\n", rec.Workload, d.name, v.Value, v.Unit)
	}
}

func writeTrace(opts options, name string, rs []*roundResult) error {
	path := opts.traceOut
	if path == "" {
		path = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-seed%d.json", name, opts.seed))
	} else if opts.workload == "" {
		path = strings.TrimSuffix(path, ".json") + "-" + name + ".json"
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	spans := make([][]span, len(rs))
	for i, rr := range rs {
		spans[i] = rr.Spans
	}
	return writeChromeTrace(path, spans)
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	for dec := json.NewDecoder(f); ; {
		var r record
		if err := dec.Decode(&r); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	if len(recs) == 0 {
		return nil, errors.New(path + ": no records")
	}
	return recs, nil
}
