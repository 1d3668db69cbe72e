package experiments

import (
	"fmt"

	"lupine/internal/boot"
	"lupine/internal/kbuild"
	"lupine/internal/metrics"
	"lupine/internal/vmm"
)

func init() {
	register("fig7-detail", "Boot-phase breakdown: where the 59% goes (§4.3)", runBootDetail)
}

// runBootDetail decomposes Figure 7's totals into phases, making the
// paper's two §4.3 findings visible in one table: specialization shrinks
// the subsystem-init phase (the ~550 extra microVM options), and
// CONFIG_PARAVIRT removes timer calibration entirely — while image size
// (the kernel-load phase) barely matters, which is why -tiny does not
// boot faster.
func runBootDetail(*Env) (fmt.Stringer, error) {
	micro, err := microVMImage()
	if err != nil {
		return nil, err
	}
	nokml, err := lupineImage("lupine-nokml", nil, false, kbuild.O2)
	if err != nil {
		return nil, err
	}
	noPV, err := lupineImage("lupine", nil, true, kbuild.O2) // KML drops PARAVIRT
	if err != nil {
		return nil, err
	}
	tiny, err := lupineImage("lupine-nokml-tiny", nil, false, kbuild.Os)
	if err != nil {
		return nil, err
	}

	const rootfsBytes = 3 << 20
	images := []*kbuild.Image{micro, nokml, tiny, noPV}
	reports := make([]boot.Report, len(images))
	for i, img := range images {
		r, err := boot.Simulate(img, vmm.Firecracker(), rootfsBytes)
		if err != nil {
			return nil, err
		}
		reports[i] = r
	}

	t := &metrics.Table{
		Title:   "Boot-phase breakdown (ms, Firecracker)",
		Columns: []string{"phase"},
	}
	for _, img := range images {
		t.Columns = append(t.Columns, img.Name)
	}
	// Collect the union of phase names in first-seen order.
	var phases []string
	seen := make(map[string]bool)
	for _, r := range reports {
		for _, ph := range r.Phases {
			if !seen[ph.Name] {
				seen[ph.Name] = true
				phases = append(phases, ph.Name)
			}
		}
	}
	for _, name := range phases {
		cells := []interface{}{name}
		for _, r := range reports {
			found := false
			for _, ph := range r.Phases {
				if ph.Name == name {
					cells = append(cells, fmt.Sprintf("%.2f", ph.Cost.Milliseconds()))
					found = true
					break
				}
			}
			if !found {
				cells = append(cells, "-")
			}
		}
		t.AddRow(cells...)
	}
	cells := []interface{}{"TOTAL"}
	for _, r := range reports {
		cells = append(cells, fmt.Sprintf("%.2f", r.Total.Milliseconds()))
	}
	t.AddRow(cells...)
	t.Notes = append(t.Notes,
		"subsystem init carries the specialization win (microVM initializes ~550 more options)",
		"the KML variant lacks CONFIG_PARAVIRT, so it pays the 48 ms timer calibration (§4.3)",
		"-tiny shrinks kernel load marginally: image size is not what makes boot fast")
	return t, nil
}
