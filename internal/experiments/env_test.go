package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"lupine/internal/telemetry"
)

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

// stormPins are sha256 digests of each storm's watched run at seed 42:
// its rendered table, SLO report JSON, Chrome trace and OpenMetrics
// text, in that order. A change that must not move behaviour (an engine
// or wire refactor, a perf fix) keeps every digest; a change that means
// to move one re-pins it and says why.
var stormPins = map[string][4]string{
	"chaos": {
		"8ea061207177838f1afcd25edff8561d209cbc410de14796ba6c59241dbf45c4",
		"8229be5d0fd70ffdd9082acf8f4521b93fcf0786119c61c9fa5318195a9953d1",
		"46741b22870fbfbfb9ee15099e6f1c6c155f63c3416e70ac6ab3138c00d3eb3f",
		"a4eb77bed614528fe65f564192124e98e30148617bc7360ea7923523fc03c31f",
	},
	"fleetchaos": {
		"fb9eea6517febba79b780354176773d17dc5718b8e7d2793c9752c59a073c894",
		"c8e06a2be8a9a21028f13d1448a3a4637bba15949411c2e42439725676a7ccec",
		"12a8e5eab2200be919d973618807dab103e182374144e9fb85f0714261335bdb",
		"4c67729d6c2c592e267cf09a75de6412b9d4a4e23c6323841eb62ac51d3eb0a7",
	},
	"surge": {
		"052e62fc29502c42b125548fb1072c30d8ba36797363807a36af051f73910c3d",
		"57a9a5982318a2996f3748f2a04b8fa0194f5af0797d805908aab6d75f5dfe81",
		"6c95d775c10830eedd07a5d070cdc0f9d841fd13793909031cc84b4fb12effa8",
		"9007e9612dfb6c56934ae39d2f5399d21267e0cb52ba834b987eeead9dfbedd0",
	},
	"memstorm": {
		"1bcaea7a537b0dc3d8aef595c01f77d87cdeec265c6141a17de31bc0184b3885",
		"50b0104ae51b7af7e4726504b5f9dc91fbdd4ea54c9eea9ccae003841f241308",
		"e8f0d22c24b141c521f8810fc611605fc5178760aa7cf17267c0709e5a5f52f7",
		"892b3c11af01764cb084c9f85f055fbc00311688b4024912cd8d216d70a5689c",
	},
	"netsplit": {
		"22bae24cd842c2c81f8850363367372ee89aa852ef8f73b8291eadddc8b2d450",
		"a678a4957dfd6c6adde127f5ea1967a489c2d0c8ed04c851e0cce72aea346bfa",
		"f61831b15ce5d87bb4adfe25ff12f57fa6b34e711544f31dc0df0f11fd95d4b2",
		"ad5d5fa63e9420efac790ca240c1461a071750b820ec2f23beb51c0a103b3ebe",
	},
	"regionfail": {
		"27c0d992611d215782fbc728c6f045b2f2c18a5953d08b0c7be0afe28af2cd40",
		"ae05c34f70aa3f6352f2d911ffdc541e429c0457c92bb6541ff44cfb116f47a2",
		"441720d23ea69d31ce12f576398129278ff3a529f0da3d4231aa589489ba311e",
		"5e0b5c0149a9752d8f78caa070db8450a5c650810efd096357c6052c80f4369f",
	},
	"catalog": {
		"40400b21f65ead4587b23ad3de462749bd07d785b83a837cfeb1b60de54e6f34",
		"aa734b6d1f3fc7d800c44eb96130e4cfd5fadc3b2284b7543704b2cdad3a97b7",
		"a23578905000468b9436c2355ce7591bcb66d3c12dbbdbfed3f1a026863f912c",
		"cd424c1691f3be23313fc1d763bae7a6e72102dc95c5b6fdd08080b6f56c1f84",
	},
	"breach": {
		"a58216362de8a0a8b5bb2c07c8036daeae302dcd7dc0127b4062c15ae3303c7a",
		"28b3cda6c347e8462a06be1559e9ec7a0b0b804dbded6d787811511c99c233b6",
		"d34ab9c8c45abb04ae2571c1a075ec83979156d957b08735abf735e03ff45861",
		"2ec0e18979119b2d2e6d09cc4d2ddad92c657952dc17d478f351fd51255c153d",
	},
}

// Every storm ships with its pins: stormPins holds exactly the storms
// the package registers.
func TestStormPinsCoverEveryStorm(t *testing.T) {
	t.Parallel()
	var pinned []string
	for id := range stormPins {
		pinned = append(pinned, id)
	}
	sort.Strings(pinned)
	if !slices.Equal(pinned, Storms()) {
		t.Fatalf("stormPins holds %v, the registered storms are %v", pinned, Storms())
	}
}

// lineDiff lists the lines only one of got and want holds, "-" for
// want's and "+" for got's.
func lineDiff(got, want string) string {
	in := func(s string) map[string]bool {
		m := map[string]bool{}
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	g, w := in(got), in(want)
	var out []string
	for _, l := range strings.Split(want, "\n") {
		if !g[l] {
			out = append(out, "- "+l)
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if !w[l] {
			out = append(out, "+ "+l)
		}
	}
	return strings.Join(out, "\n")
}

// pinDigests hashes the four outputs stormPins pins.
func pinDigests(run stormRun, env *Env) [4]string {
	var out [4]string
	for i, b := range [][]byte{[]byte(run.table), []byte(run.slo), env.Trace.ChromeTrace(), env.Metrics.OpenMetrics()} {
		sum := sha256.Sum256(b)
		out[i] = hex.EncodeToString(sum[:])
	}
	return out
}

// Watching a run must not change it: every storm renders the same table
// and SLO report whether its Env carries a tracer and registry or
// leaves them nil. The watched run's outputs match the storm's pins, so
// every same-seed run in any process exports the same bytes, and its
// Chrome trace and SLO report are valid JSON. A run with a registry and
// no tracer exports the same OpenMetrics text as the watched run: what
// a run counts does not depend on whether it is traced.
func TestWatchingDoesNotChangeStorms(t *testing.T) {
	t.Parallel()
	for _, id := range Storms() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			blind, err := runStorm(id, newEnv())
			if err != nil {
				t.Fatal(err)
			}
			env := withTelemetry()
			watched, err := runStorm(id, env)
			if err != nil {
				t.Fatal(err)
			}
			names := [4]string{"table", "SLO report", "Chrome trace", "OpenMetrics"}
			got := pinDigests(watched, env)
			for i, want := range stormPins[id] {
				if got[i] != want {
					t.Errorf("%s digest %s, pinned %s", names[i], got[i], want)
				}
			}
			if !json.Valid(env.Trace.ChromeTrace()) || !json.Valid([]byte(watched.slo)) {
				t.Error("the Chrome trace or the SLO report is not valid JSON")
			}
			if blind.table != watched.table {
				t.Errorf("telemetry changed the table:\n%s\n---\n%s", blind.table, watched.table)
			}
			if blind.slo != watched.slo {
				t.Error("telemetry changed the SLO report")
			}
			metered := newEnv()
			metered.Metrics = telemetry.NewRegistry()
			if _, err := runStorm(id, metered); err != nil {
				t.Fatal(err)
			}
			if got, want := metered.Metrics.OpenMetrics(), env.Metrics.OpenMetrics(); !bytes.Equal(got, want) {
				t.Errorf("a metrics-only run exports other OpenMetrics text than the watched run:\n%s",
					lineDiff(string(got), string(want)))
			}
		})
	}
}
