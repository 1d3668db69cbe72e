package experiments

import (
	"errors"
	"slices"
	"testing"

	"lupine/internal/libos"
	"lupine/internal/slo"
	"lupine/internal/telemetry"
)

// fakeRow is one row of fakeStorm.
type fakeRow struct {
	name  string
	scope *slo.Scope
}

var errFake = errors.New("fake row failed")

// fakeStorm runs no simulation. System sys yields rows sys/0, scoped on
// track sys, and an unscoped sys/1; every comparator yields one
// unscoped row under its name. The system or comparator named failOn
// fails instead.
func fakeStorm(failOn string) *storm[fakeRow] {
	reg := telemetry.NewRegistry()
	return &storm[fakeRow]{
		id:      "fake",
		systems: []string{"a", "b"},
		rows: func(_ *Env, sys string) ([]fakeRow, error) {
			if sys == failOn {
				return nil, errFake
			}
			return []fakeRow{{sys + "/0", slo.NewScope(sys, reg, nil, sloEvery)}, {sys + "/1", nil}}, nil
		},
		comparator: func(_ *Env, s *libos.System) (fakeRow, error) {
			if s.Name == failOn {
				return fakeRow{}, errFake
			}
			return fakeRow{name: s.Name}, nil
		},
		scope: func(r fakeRow) *slo.Scope { return r.scope },
	}
}

// The runner drives each system's rows in order, then one row per libos
// comparator in libos.All() order, and records exactly the non-nil
// scopes under the storm's id and the run's seed. A failing row stops
// the run with its error and records no report.
func TestStormRunner(t *testing.T) {
	t.Parallel()
	env := &Env{Seed: 9}
	rows, err := fakeStorm("").run(env)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a/0", "a/1", "b/0", "b/1"}
	for _, s := range libos.All() {
		want = append(want, s.Name)
	}
	var got []string
	for _, r := range rows {
		got = append(got, r.name)
	}
	if !slices.Equal(got, want) {
		t.Errorf("rows %v, want %v", got, want)
	}
	rep := env.SLO
	if rep == nil || rep.Experiment != "fake" || rep.Seed != 9 {
		t.Fatalf("SLO report %+v, want one labelled fake, seed 9", rep)
	}
	var tracks []string
	for _, sc := range rep.Scopes {
		tracks = append(tracks, sc.Track)
	}
	if !slices.Equal(tracks, []string{"a", "b"}) {
		t.Errorf("report scopes %v, want the scoped rows' tracks [a b]", tracks)
	}

	for _, failOn := range []string{"b", libos.All()[1].Name} {
		env := &Env{Seed: 9}
		if _, err := fakeStorm(failOn).run(env); !errors.Is(err, errFake) {
			t.Errorf("row %s failing: run returned %v, want its error", failOn, err)
		}
		if env.SLO != nil {
			t.Errorf("row %s failing: run recorded an SLO report", failOn)
		}
	}
}
