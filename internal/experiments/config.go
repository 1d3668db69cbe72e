package experiments

import (
	"fmt"
	"strings"

	"lupine/internal/core"
	"lupine/internal/kerneldb"
	"lupine/internal/metrics"
)

func init() {
	register("fig3", "Linux kernel configuration options by source directory", runFig3)
	register("fig4", "Breakdown of microVM options removed for lupine-base", runFig4)
	register("tab1", "Configuration options that enable/disable system calls", runTable1)
	register("tab3", "Top-20 Docker Hub applications and options atop lupine-base", runTable3)
	register("fig5", "Growth of unique kernel options to support top-x apps", runFig5)
}

func runFig3(*Env) (fmt.Stringer, error) {
	t := &metrics.Table{
		Title:   "Figure 3: config options per directory (total / microVM / lupine-base)",
		Columns: []string{"directory", "total", "microvm", "lupine-base"},
	}
	var total, micro, base int
	for _, c := range db().Figure3Census() {
		t.AddRow(c.Dir, c.Total, c.MicroVM, c.Base)
		total += c.Total
		micro += c.MicroVM
		base += c.Base
	}
	t.AddRow("TOTAL", total, micro, base)
	t.Notes = append(t.Notes,
		"paper: 15,953 options in Linux 4.0, nearly half under drivers/")
	return t, nil
}

func runFig4(*Env) (fmt.Stringer, error) {
	t := &metrics.Table{
		Title:   "Figure 4: microVM options by unikernel property",
		Columns: []string{"category", "options"},
	}
	appSpecific := 0
	for _, c := range db().Figure4Census() {
		t.AddRow(c.Class.String(), c.Count)
		if c.Class.AppSpecific() {
			appSpecific += c.Count
		}
	}
	t.AddRow("application-specific (total)", appSpecific)
	t.Notes = append(t.Notes,
		"paper: ~550 of microVM's 833 options removed (311 app-specific, 89 multi-process, 150 hardware); 283 remain in lupine-base")
	return t, nil
}

func runTable1(*Env) (fmt.Stringer, error) {
	t := &metrics.Table{
		Title:   "Table 1: options gating system calls",
		Columns: []string{"option", "enabled system call(s)"},
	}
	for _, opt := range kerneldb.Table1Options() {
		t.AddRow("CONFIG_"+opt, strings.Join(db().Info(opt).Syscalls, ", "))
	}
	return t, nil
}

func runTable3(*Env) (fmt.Stringer, error) {
	t := &metrics.Table{
		Title:   "Table 3: top-20 Docker Hub applications (config search re-derives each set)",
		Columns: []string{"name", "downloads(B)", "description", "#options atop lupine-base", "search boots"},
	}
	for _, a := range appsRegistry() {
		spec, app, err := appSpec(a)
		if err != nil {
			return nil, err
		}
		res, err := core.DeriveManifest(db(), core.SearchInput{
			Spec:        spec,
			SuccessText: app.SuccessText,
		})
		if err != nil {
			return nil, fmt.Errorf("tab3: %s: %w", a, err)
		}
		// Cross-check the derived set against the developer manifest.
		if strings.Join(res.Manifest.Options, ",") != strings.Join(app.Manifest().Options, ",") {
			return nil, fmt.Errorf("tab3: %s: derived %v != declared %v",
				a, res.Manifest.Options, app.Manifest().Options)
		}
		t.AddRow(app.Name, app.DownloadsBillions, app.Description,
			len(res.Manifest.Options), res.Boots)
	}
	t.Notes = append(t.Notes,
		"option sets are derived automatically from console error messages (§4.1), one option per boot")
	return t, nil
}

func runFig5(*Env) (fmt.Stringer, error) {
	f := &metrics.Figure{
		Title:  "Figure 5: growth of unique kernel configuration options",
		XLabel: "support for top x apps",
		YLabel: "options",
	}
	s := f.NewSeries("union of required options")
	for i := 1; i <= 20; i++ {
		s.Add(float64(i), float64(len(unionOptions(i))))
	}
	f.Notes = append(f.Notes,
		fmt.Sprintf("union of all 20 apps: %d options (lupine-general)", len(unionOptions(20))))
	return f, nil
}
