package experiments

import (
	"fmt"
	"sync"
	"testing"
)

// stormIDs are the robustness storms: the experiments that take their
// seed and telemetry from the Env and leave an SLO report in it.
var stormIDs = []string{"chaos", "fleetchaos", "surge", "memstorm", "netsplit", "regionfail", "catalog", "breach"}

// stormRun is what one storm run shows the outside: its rendered table
// and its SLO report.
type stormRun struct{ table, slo string }

func runStorm(id string, env *Env) (stormRun, error) {
	e, err := Lookup(id)
	if err != nil {
		return stormRun{}, err
	}
	out, err := e.Run(env)
	if err != nil {
		return stormRun{}, err
	}
	if env.SLO == nil {
		return stormRun{}, fmt.Errorf("%s: no SLO report", id)
	}
	return stormRun{table: out.String(), slo: string(env.SLO.JSON())}, nil
}

// Storms share no harness state: netsplit at two seeds and regionfail,
// run at once, each render the table and SLO report a serial run of the
// same seed renders.
func TestStormsReentrant(t *testing.T) {
	t.Parallel()
	cases := []struct {
		id   string
		seed uint64
	}{{"netsplit", 42}, {"netsplit", 7}, {"regionfail", 42}}

	serial := make([]stormRun, len(cases))
	for i, c := range cases {
		r, err := runStorm(c.id, &Env{Seed: c.seed})
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = r
	}
	if serial[0].table == serial[1].table {
		t.Fatal("netsplit renders the same table at seeds 42 and 7: the seed never reached the storm")
	}

	concurrent := make([]stormRun, len(cases))
	errs := make([]error, len(cases))
	var wg sync.WaitGroup
	for i, c := range cases {
		wg.Add(1)
		go func(i int, id string, seed uint64) {
			defer wg.Done()
			concurrent[i], errs[i] = runStorm(id, &Env{Seed: seed})
		}(i, c.id, c.seed)
	}
	wg.Wait()
	for i, c := range cases {
		if errs[i] != nil {
			t.Fatalf("%s seed %d: %v", c.id, c.seed, errs[i])
		}
		if concurrent[i].table != serial[i].table {
			t.Errorf("%s seed %d: concurrent table differs from serial:\n%s\n---\n%s",
				c.id, c.seed, concurrent[i].table, serial[i].table)
		}
		if concurrent[i].slo != serial[i].slo {
			t.Errorf("%s seed %d: concurrent SLO report differs from serial", c.id, c.seed)
		}
	}
}

// Watching a run must not change it: every storm renders the same table
// and SLO report whether its Env carries a tracer and registry or
// leaves them nil.
func TestWatchingDoesNotChangeStorms(t *testing.T) {
	t.Parallel()
	for _, id := range stormIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			blind, err := runStorm(id, newEnv())
			if err != nil {
				t.Fatal(err)
			}
			watched, err := runStorm(id, withTelemetry())
			if err != nil {
				t.Fatal(err)
			}
			if blind.table != watched.table {
				t.Errorf("telemetry changed the table:\n%s\n---\n%s", blind.table, watched.table)
			}
			if blind.slo != watched.slo {
				t.Error("telemetry changed the SLO report")
			}
		})
	}
}
