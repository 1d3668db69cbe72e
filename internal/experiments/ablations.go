package experiments

import (
	"fmt"

	"lupine/internal/boot"
	"lupine/internal/kbuild"
	"lupine/internal/kconfig"
	"lupine/internal/metrics"
	"lupine/internal/vmm"
)

func init() {
	register("abl-kpti", "Ablation: KPTI's effect on syscall latency (§3.1.2)", runKPTIAblation)
	register("abl-paravirt", "Ablation: CONFIG_PARAVIRT's effect on boot time (§4.3)", runParavirtAblation)
	register("abl-tiny", "Ablation: -Os/-tiny space-performance tradeoff (§4.2/4.6)", runTinyAblation)
}

func runKPTIAblation(*Env) (fmt.Stringer, error) {
	t := &metrics.Table{
		Title:   "KPTI ablation: null syscall latency (us)",
		Columns: []string{"kernel", "null call us", "slowdown"},
	}
	base, err := lupineImage("lupine-nokml", nil, false, kbuild.O2)
	if err != nil {
		return nil, err
	}
	req := db().LupineBaseRequest().Enable("PAGE_TABLE_ISOLATION")
	kpti, err := buildImage("lupine-kpti", req, kbuild.O2)
	if err != nil {
		return nil, err
	}
	nBase, _, _, err := syscallLatencies(base)
	if err != nil {
		return nil, err
	}
	nKPTI, _, _, err := syscallLatencies(kpti)
	if err != nil {
		return nil, err
	}
	t.AddRow("no PTI", nBase, "1.0x")
	t.AddRow("CONFIG_PAGE_TABLE_ISOLATION", nKPTI, fmt.Sprintf("%.1fx", nKPTI/nBase))
	t.Notes = append(t.Notes,
		"paper (§3.1.2): testing with KPTI measured a ~10x slowdown in system call latency — unnecessary in a single security domain")
	return t, nil
}

func runParavirtAblation(*Env) (fmt.Stringer, error) {
	t := &metrics.Table{
		Title:   "PARAVIRT ablation: boot time (ms)",
		Columns: []string{"kernel", "boot ms"},
	}
	withPV, err := lupineImage("lupine-paravirt", nil, false, kbuild.O2)
	if err != nil {
		return nil, err
	}
	req := db().LupineBaseRequest().Set("PARAVIRT", kconfig.No)
	noPV, err := buildImage("lupine-noparavirt", req, kbuild.O2)
	if err != nil {
		return nil, err
	}
	for _, img := range []*kbuild.Image{withPV, noPV} {
		r, err := boot.Simulate(img, vmm.Firecracker(), 3<<20)
		if err != nil {
			return nil, err
		}
		t.AddRow(img.Name, r.Total.Milliseconds())
	}
	t.Notes = append(t.Notes,
		"paper (§4.3): without CONFIG_PARAVIRT boot jumps from ~23 ms to ~71 ms; this is why the KML-incompatible variant boots slowly")
	return t, nil
}

func runTinyAblation(*Env) (fmt.Stringer, error) {
	t := &metrics.Table{
		Title:   "-tiny ablation: image size vs hot-path performance",
		Columns: []string{"kernel", "image MB", "null call us", "boot ms"},
	}
	normal, err := lupineImage("lupine", nil, true, kbuild.O2)
	if err != nil {
		return nil, err
	}
	tiny, err := lupineImage("lupine-tiny", nil, true, kbuild.Os)
	if err != nil {
		return nil, err
	}
	for _, img := range []*kbuild.Image{normal, tiny} {
		n, _, _, err := syscallLatencies(img)
		if err != nil {
			return nil, err
		}
		// Boot with PARAVIRT variants for a fair -tiny boot comparison.
		nokmlName := "lupine-nokml"
		opt := kbuild.O2
		if img.Opt == kbuild.Os {
			nokmlName = "lupine-nokml-tiny"
			opt = kbuild.Os
		}
		nk, err := lupineImage(nokmlName, nil, false, opt)
		if err != nil {
			return nil, err
		}
		r, err := boot.Simulate(nk, vmm.Firecracker(), 3<<20)
		if err != nil {
			return nil, err
		}
		t.AddRow(img.Name, img.MegabytesMB(), n, r.Total.Milliseconds())
	}
	t.Notes = append(t.Notes,
		"paper: -tiny shrinks the image ~6% but does not improve boot time (§4.3) and costs up to ~10 points of throughput (§4.6)")
	return t, nil
}
