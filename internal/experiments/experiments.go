// Package experiments reproduces every table and figure of the paper's
// evaluation. Each experiment runs the real pipeline — kconfig resolution,
// kernel build, boot simulation, guest workloads, comparator models — and
// renders the same rows/series the paper reports. Absolute values are
// simulator-calibrated; the relationships (who wins, by what factor) are
// the reproduction target (see EXPERIMENTS.md).
package experiments

import (
	"errors"
	"fmt"
	"sort"

	"lupine/internal/apps"
	"lupine/internal/core"
	"lupine/internal/guest"
	"lupine/internal/kbuild"
	"lupine/internal/kconfig"
	"lupine/internal/kerneldb"
	"lupine/internal/slo"
	"lupine/internal/telemetry"
)

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(*Env) (fmt.Stringer, error)
}

// Env is one experiment run's harness state. Storms take their seed and
// telemetry from it and leave their SLO report in it, so runs with their
// own Envs share nothing and may run in parallel. Paper experiments
// ignore it.
type Env struct {
	// Seed drives every storm's fault plans and seeded streams.
	Seed uint64
	// Trace and Metrics are the telemetry plane the run feeds. Nil, the
	// default, runs exactly as with them set, at zero telemetry cost.
	Trace   *telemetry.Tracer
	Metrics *telemetry.Registry
	// SLO is the report of the run's scoped rows, set by every storm.
	SLO *slo.Report
}

var (
	registry []Experiment
	storms   []string // the robustness storms' ids, in registration order
)

func register(id, title string, run func(*Env) (fmt.Stringer, error)) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// registerStorm registers a robustness storm: an experiment that takes
// its seed and telemetry from the Env and leaves an SLO report in it.
func registerStorm(id, title string, run func(*Env) (fmt.Stringer, error)) {
	register(id, title, run)
	storms = append(storms, id)
}

// All returns every experiment, sorted by ID.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (try: %v)", id, IDs())
}

// IDs returns every experiment ID, sorted.
func IDs() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.ID)
	}
	return out
}

// Storms returns the ids of the robustness storms, sorted.
func Storms() []string {
	out := append([]string(nil), storms...)
	sort.Strings(out)
	return out
}

// --- shared builders ---

func db() *kerneldb.DB { return kerneldb.MustLoad() }

// buildImage resolves and builds a kernel for a named profile.
func buildImage(name string, req *kconfig.Request, opt kbuild.OptLevel) (*kbuild.Image, error) {
	cfg, err := db().ResolveProfile(req)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return kbuild.Build(db(), name, cfg, opt)
}

// Profile constructors for the systems of Table 2 and §4's variants.

func microVMImage() (*kbuild.Image, error) {
	return buildImage("microvm", db().MicroVMRequest(), kbuild.O2)
}

func lupineBaseImage() (*kbuild.Image, error) {
	return buildImage("lupine-base", db().LupineBaseRequest(), kbuild.O2)
}

// lupineImage builds an application-specific Lupine kernel; kml selects
// the KML variant (-nokml keeps PARAVIRT) and opt Os the -tiny one.
func lupineImage(name string, options []string, kml bool, opt kbuild.OptLevel) (*kbuild.Image, error) {
	return core.Kernel(db(), name, options, kml, opt == kbuild.Os)
}

func lupineGeneralImage(kml bool) (*kbuild.Image, error) {
	name := "lupine-general"
	if !kml {
		name = "lupine-nokml-general"
	}
	return lupineImage(name, kerneldb.GeneralOptions(), kml, kbuild.O2)
}

// appSpec adapts a registry application to the core builder.
func appSpec(name string) (core.Spec, *apps.App, error) {
	a, err := apps.Lookup(name)
	if err != nil {
		return core.Spec{}, nil, err
	}
	return core.Spec{
		Manifest: a.Manifest(),
		Image:    a.ContainerImage(),
		Program:  func(p *guest.Proc, probeOnly bool) int { return a.Main(p, probeOnly) },
	}, a, nil
}

// redis builds the redis app as one of the Linux variants the storms
// pit against each other: lupine, lupine+mp (MULTIPROCESS),
// lupine-general or microvm.
func redis(variant string) (*core.Unikernel, error) {
	spec, _, err := appSpec("redis")
	if err != nil {
		return nil, err
	}
	var u *core.Unikernel
	switch variant {
	case "lupine", "lupine+mp":
		u, err = core.Build(db(), spec, lupineOpts(variant))
	case "lupine-general":
		u, err = core.BuildGeneral(db(), spec, true)
	case "microvm":
		u, err = core.BuildMicroVM(db(), spec)
	default:
		err = errors.New("unknown variant")
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: building redis on %s: %w", variant, err)
	}
	return u, nil
}

// lupineOpts are a variant's specialized-build options: lupine+mp adds
// MULTIPROCESS, every other variant builds plain lupine.
func lupineOpts(name string) core.BuildOpts {
	if name == "lupine+mp" {
		return core.BuildOpts{ExtraOptions: []string{"MULTIPROCESS"}}
	}
	return core.BuildOpts{}
}

// appsRegistry returns the app names in Table 3 order.
func appsRegistry() []string { return apps.Names() }

// unionOptions is Figure 5's union over the first n apps.
func unionOptions(n int) []string { return apps.UnionOptions(n) }
