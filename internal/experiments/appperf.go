package experiments

import (
	"fmt"

	"lupine/internal/apps"
	"lupine/internal/core"
	"lupine/internal/libos"
	"lupine/internal/metrics"
)

func init() {
	register("tab4", "Application performance normalized to microVM", runTable4)
}

// workload identifies one Table 4 column.
type workload struct {
	name        string
	app         string
	op          string // redis op, or "" for nginx
	conns, reqs int    // nginx scenarios
	requests    int    // redis request count
}

var table4Workloads = []workload{
	{name: "redis-get", app: "redis", op: "get", requests: 3000},
	{name: "redis-set", app: "redis", op: "set", requests: 3000},
	{name: "nginx-conn", app: "nginx", conns: 300, reqs: 1},
	{name: "nginx-sess", app: "nginx", conns: 30, reqs: 100},
}

// runWorkload boots the unikernel and drives the workload with the
// external client, returning requests per virtual second.
func runWorkload(u *core.Unikernel, wl workload, port int) (float64, error) {
	vm, err := u.Boot(core.BootOpts{})
	if err != nil {
		return 0, err
	}
	var res apps.BenchResult
	if wl.app == "redis" {
		apps.SpawnRedisBenchmark(vm.Guest, port, wl.requests, wl.op, &res)
	} else {
		apps.SpawnAB(vm.Guest, port, wl.conns, wl.reqs, &res)
	}
	if err := vm.Run(); err != nil {
		return 0, err
	}
	if res.Errors > 0 {
		return 0, fmt.Errorf("workload %s: %d request errors", wl.name, res.Errors)
	}
	return res.Throughput, nil
}

func runTable4(*Env) (fmt.Stringer, error) {
	t := &metrics.Table{
		Title:   "Table 4: application throughput normalized to microVM (higher is better)",
		Columns: []string{"system", "redis-get", "redis-set", "nginx-conn", "nginx-sess"},
	}

	// Builders for each Lupine variant row, in the paper's row order.
	type row struct {
		label string
		build func(spec core.Spec) (*core.Unikernel, error)
	}
	rows := []row{
		{"microVM", func(s core.Spec) (*core.Unikernel, error) { return core.BuildMicroVM(db(), s) }},
		{"lupine-general", func(s core.Spec) (*core.Unikernel, error) { return core.BuildGeneral(db(), s, true) }},
		{"lupine", func(s core.Spec) (*core.Unikernel, error) { return core.Build(db(), s, core.BuildOpts{KML: true}) }},
		{"lupine-tiny", func(s core.Spec) (*core.Unikernel, error) {
			return core.Build(db(), s, core.BuildOpts{KML: true, Tiny: true})
		}},
		{"lupine-nokml", func(s core.Spec) (*core.Unikernel, error) { return core.Build(db(), s, core.BuildOpts{}) }},
		{"lupine-nokml-tiny", func(s core.Spec) (*core.Unikernel, error) {
			return core.Build(db(), s, core.BuildOpts{Tiny: true})
		}},
	}

	// Absolute throughputs for every variant and workload.
	abs := make(map[string]map[string]float64)
	for _, r := range rows {
		abs[r.label] = make(map[string]float64)
		for _, wl := range table4Workloads {
			spec, app, err := appSpec(wl.app)
			if err != nil {
				return nil, err
			}
			u, err := r.build(spec)
			if err != nil {
				return nil, fmt.Errorf("tab4: %s: %w", r.label, err)
			}
			tput, err := runWorkload(u, wl, app.Port)
			if err != nil {
				return nil, fmt.Errorf("tab4: %s/%s: %w", r.label, wl.name, err)
			}
			abs[r.label][wl.name] = tput
		}
	}
	base := abs["microVM"]
	for _, r := range rows {
		cells := []interface{}{r.label}
		for _, wl := range table4Workloads {
			cells = append(cells, fmt.Sprintf("%.2f", abs[r.label][wl.name]/base[wl.name]))
		}
		t.AddRow(cells...)
	}
	// Unikernel comparators from their curated lists.
	for _, s := range libos.All() {
		cells := []interface{}{s.Name}
		for _, wl := range table4Workloads {
			if tput, err := s.Benchmark(wl.name, 3000); err == nil {
				cells = append(cells, fmt.Sprintf("%.2f", tput/base[wl.name]))
			} else {
				cells = append(cells, "-")
			}
		}
		t.AddRow(cells...)
	}
	t.Notes = append(t.Notes,
		"paper: lupine wins every column (1.14-1.33); -tiny costs up to ~10 points, KML adds at most ~4; OSv drops redis connections, HermiTux cannot run nginx")
	return t, nil
}
