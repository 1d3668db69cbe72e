package experiments

import (
	"encoding/json"
	"maps"
	"os"
	"testing"

	"lupine/internal/fleet"
)

// headlines are the storms a BENCH_<storm>.json file pins. Each runs its
// storm under env and returns its behaviour fields, keyed as the file
// records them: the virtual events executed across every row, the
// headline row's availability, and the storm's own figure.
var headlines = map[string]func(*Env) (map[string]float64, error){
	"netsplit": func(env *Env) (map[string]float64, error) {
		rows, err := netsplitStorm.run(env)
		if err != nil {
			return nil, err
		}
		h := map[string]float64{}
		for _, r := range rows {
			h["events"] += float64(r.Res.Events)
			if r.System == "lupine+mp" && r.Policy == fleet.PolicyRR {
				h["availability"] = r.Res.Availability()
				h["p99_us"] = r.Res.Percentile(99).Microseconds()
			}
		}
		return h, nil
	},
	"regionfail": func(env *Env) (map[string]float64, error) {
		rows, err := regionFailStorm.run(env)
		if err != nil {
			return nil, err
		}
		h := map[string]float64{}
		for _, r := range rows {
			h["events"] += float64(r.Res.Events)
			if r.System == "lupine+mp" {
				h["availability"] = r.Res.Availability()
				h["detect_p99_us"] = r.Res.DetectPercentile(99).Microseconds()
			}
		}
		return h, nil
	},
	"catalog": func(env *Env) (map[string]float64, error) {
		res, err := runCatalogStorm(env)
		if err != nil {
			return nil, err
		}
		h := map[string]float64{"hit_rate": res.Redeploy.Stats.HitRate()}
		for _, r := range res.Rows {
			h["events"] += float64(r.Res.Events)
			if r.System == "lupine-mixed" {
				h["availability"] = r.Res.Availability()
			}
		}
		return h, nil
	},
	"breach": func(env *Env) (map[string]float64, error) {
		rows, err := breachStorm.run(env)
		if err != nil {
			return nil, err
		}
		h := map[string]float64{}
		for _, r := range rows {
			h["events"] += float64(r.Res.Events)
			if r.System == "lupine+mp+full" {
				h["availability"] = r.Res.Availability()
				h["containment"] = r.Res.Containment()
			}
		}
		return h, nil
	},
}

// Each BENCH_<storm>.json holds one row, the storm's seed-42 behaviour,
// which the bench module's netsplit, regionfail and catalog workloads
// check as well. checkBenchPin runs storm id and requires every field of
// that row exactly.
func checkBenchPin(t *testing.T, id string) {
	t.Helper()
	t.Parallel()
	data, err := os.ReadFile("../../BENCH_" + id + ".json")
	if err != nil {
		t.Fatal(err)
	}
	var rows []map[string]float64
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("BENCH_%s.json holds %d rows, want one", id, len(rows))
	}
	got, err := headlines[id](newEnv())
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(got, rows[0]) {
		t.Errorf("seed 42 gives %v, BENCH_%s.json pins %v", got, id, rows[0])
	}
}

func TestNetSplitBench(t *testing.T)      { checkBenchPin(t, "netsplit") }
func TestRegionFailBench(t *testing.T)    { checkBenchPin(t, "regionfail") }
func TestCatalogBench(t *testing.T)       { checkBenchPin(t, "catalog") }
func TestBreachBenchSummary(t *testing.T) { checkBenchPin(t, "breach") }

// benchHeadline runs storm id at seed 42 b.N times and reports the
// behaviour fields its BENCH file pins, in the file's own names.
func benchHeadline(b *testing.B, id string) {
	for i := 0; i < b.N; i++ {
		h, err := headlines[id](newEnv())
		if err != nil {
			b.Fatal(err)
		}
		for k, v := range h {
			b.ReportMetric(v, k)
		}
	}
}
