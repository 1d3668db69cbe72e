package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"lupine/internal/metrics"
)

// newEnv is a fresh run Env at lupine-bench's default seed, telemetry
// off.
func newEnv() *Env { return &Env{Seed: 42} }

func runExp(t testing.TB, id string) fmt.Stringer {
	t.Helper()
	e, err := Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Run(newEnv())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if out.String() == "" {
		t.Fatalf("%s: empty output", id)
	}
	return out
}

func tableOf(t *testing.T, id string) *metrics.Table {
	t.Helper()
	out := runExp(t, id)
	tbl, ok := out.(*metrics.Table)
	if !ok {
		t.Fatalf("%s: not a table", id)
	}
	return tbl
}

// cell finds the value at (row label, column name).
func cell(t *testing.T, tbl *metrics.Table, rowLabel, col string) string {
	t.Helper()
	ci := -1
	for i, c := range tbl.Columns {
		if c == col {
			ci = i
		}
	}
	if ci < 0 {
		t.Fatalf("no column %q in %v", col, tbl.Columns)
	}
	for _, row := range tbl.Rows {
		if row[0] == rowLabel {
			return row[ci]
		}
	}
	t.Fatalf("no row %q", rowLabel)
	return ""
}

func cellF(t *testing.T, tbl *metrics.Table, rowLabel, col string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell(t, tbl, rowLabel, col), 64)
	if err != nil {
		t.Fatalf("cell %s/%s = %q: %v", rowLabel, col, cell(t, tbl, rowLabel, col), err)
	}
	return v
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "tab1", "tab3", "tab4", "tab5", "sec5smp",
		"abl-kpti", "abl-paravirt", "abl-tiny", "sec-surface", "sec5fork", "fleet", "fig7-detail",
	}
	have := make(map[string]bool)
	for _, e := range All() {
		have[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Errorf("%s: incomplete registration", e.ID)
		}
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("Lookup(nope) succeeded")
	}
}

func TestFig3(t *testing.T) {
	tbl := tableOf(t, "fig3")
	if got := cellF(t, tbl, "TOTAL", "total"); got != 15953 {
		t.Errorf("total options = %v, want 15953", got)
	}
	if got := cellF(t, tbl, "TOTAL", "microvm"); got != 833 {
		t.Errorf("microvm options = %v", got)
	}
	if got := cellF(t, tbl, "TOTAL", "lupine-base"); got != 283 {
		t.Errorf("base options = %v", got)
	}
	if tbl.Rows[0][0] != "drivers" {
		t.Errorf("largest dir = %s", tbl.Rows[0][0])
	}
}

func TestFig4(t *testing.T) {
	tbl := tableOf(t, "fig4")
	if got := cellF(t, tbl, "application-specific (total)", "options"); got != 311 {
		t.Errorf("app-specific = %v, want 311", got)
	}
	if got := cellF(t, tbl, "multiple processes", "options"); got != 89 {
		t.Errorf("multi-process = %v, want 89", got)
	}
	if got := cellF(t, tbl, "hardware management", "options"); got != 150 {
		t.Errorf("hardware = %v, want 150", got)
	}
}

func TestTable1(t *testing.T) {
	tbl := tableOf(t, "tab1")
	if len(tbl.Rows) != 12 {
		t.Fatalf("%d rows, want 12", len(tbl.Rows))
	}
	if got := cell(t, tbl, "CONFIG_FUTEX", "enabled system call(s)"); got != "futex, set_robust_list, get_robust_list" {
		t.Errorf("FUTEX row = %q", got)
	}
}

func TestFig5(t *testing.T) {
	out := runExp(t, "fig5")
	f := out.(*metrics.Figure)
	ys := f.Series[0].Y
	if ys[0] != 13 || ys[len(ys)-1] != 19 {
		t.Errorf("growth curve = %v, want 13 ... 19", ys)
	}
	for i := 1; i < len(ys); i++ {
		if ys[i] < ys[i-1] {
			t.Errorf("union shrank at %d: %v", i, ys)
		}
	}
}

func TestFig6(t *testing.T) {
	tbl := tableOf(t, "fig6")
	micro := cellF(t, tbl, "microvm", "image MB")
	lup := cellF(t, tbl, "lupine", "image MB")
	tiny := cellF(t, tbl, "lupine-tiny", "image MB")
	general := cellF(t, tbl, "lupine-general", "image MB")
	osv := cellF(t, tbl, "osv-zfs", "image MB")
	rump := cellF(t, tbl, "rump", "image MB")
	if r := lup / micro; r < 0.24 || r > 0.31 {
		t.Errorf("lupine/microVM = %.2f, want ~0.27", r)
	}
	if tiny >= lup {
		t.Error("-tiny not smaller")
	}
	if general >= osv || general >= rump {
		t.Errorf("lupine-general (%.1f) not below OSv (%.1f) and Rump (%.1f)", general, osv, rump)
	}
}

func TestFig7(t *testing.T) {
	tbl := tableOf(t, "fig7")
	micro := cellF(t, tbl, "microvm", "boot ms")
	nokml := cellF(t, tbl, "lupine-nokml", "boot ms")
	general := cellF(t, tbl, "lupine-nokml-general", "boot ms")
	herm := cellF(t, tbl, "hermitux", "boot ms")
	zfs := cellF(t, tbl, "osv-zfs", "boot ms")
	rofs := cellF(t, tbl, "osv-rofs", "boot ms")
	if speedup := 1 - nokml/micro; speedup < 0.5 || speedup > 0.68 {
		t.Errorf("boot speedup = %.2f, want ~0.59", speedup)
	}
	if nokml < 20 || nokml > 27 {
		t.Errorf("lupine boot = %.1f ms, want ~23", nokml)
	}
	if d := general - nokml; d < 0.5 || d > 4 {
		t.Errorf("general boot delta = %.1f ms, want ~2", d)
	}
	// lupine-general still beats HermiTux and OSv-zfs (§4.3).
	if general >= herm || general >= zfs {
		t.Errorf("lupine-general (%.1f) not below hermitux (%.1f) / osv-zfs (%.1f)", general, herm, zfs)
	}
	if r := zfs / rofs; r < 6 || r > 12 {
		t.Errorf("osv zfs/rofs = %.1f, want ~10", r)
	}
}

func TestFig8(t *testing.T) {
	tbl := tableOf(t, "fig8")
	microHello := cellF(t, tbl, "microvm", "hello")
	lupHello := cellF(t, tbl, "lupine", "hello")
	lupRedis := cellF(t, tbl, "lupine", "redis")
	if lupHello >= microHello {
		t.Error("lupine footprint not below microVM")
	}
	if r := 1 - lupHello/microHello; r < 0.15 || r > 0.45 {
		t.Errorf("footprint reduction = %.2f, want ~0.28", r)
	}
	// Lupine beats every unikernel for redis (§4.4).
	for _, sys := range []string{"hermitux", "osv-zfs", "rump"} {
		if v := cellF(t, tbl, sys, "redis"); v <= lupRedis {
			t.Errorf("%s redis footprint %.0f not above lupine %.0f", sys, v, lupRedis)
		}
	}
	if got := cell(t, tbl, "hermitux", "nginx"); got != "n/a" {
		t.Errorf("hermitux nginx = %q, want n/a", got)
	}
}

func TestFig9(t *testing.T) {
	tbl := tableOf(t, "fig9")
	microNull := cellF(t, tbl, "microvm", "null")
	microWrite := cellF(t, tbl, "microvm", "write")
	nokmlNull := cellF(t, tbl, "lupine-nokml", "null")
	nokmlWrite := cellF(t, tbl, "lupine-nokml", "write")
	kmlNull := cellF(t, tbl, "lupine", "null")
	// §4.5: specialization contributes up to ~56% (write); KML ~40% (null).
	if imp := 1 - nokmlWrite/microWrite; imp < 0.45 || imp > 0.65 {
		t.Errorf("specialization write improvement = %.2f, want ~0.56", imp)
	}
	if imp := 1 - kmlNull/nokmlNull; imp < 0.3 || imp > 0.5 {
		t.Errorf("KML null improvement = %.2f, want ~0.40", imp)
	}
	if microNull <= nokmlNull {
		t.Error("microVM null not above lupine-nokml")
	}
	// lupine-general matches the application-specific kernel (§4.5: "no
	// differences").
	if g, k := cellF(t, tbl, "lupine-general", "null"), kmlNull; g != k {
		t.Errorf("lupine-general null %.4f != lupine %.4f", g, k)
	}
	if got := cell(t, tbl, "osv-zfs", "read"); got != "unsupported" {
		t.Errorf("OSv read = %q, want unsupported", got)
	}
}

func TestFig10(t *testing.T) {
	out := runExp(t, "fig10")
	f := out.(*metrics.Figure)
	ys := f.Series[0].Y
	if ys[0] < 0.3 || ys[0] > 0.5 {
		t.Errorf("KML improvement at 0 iters = %.2f, want ~0.40", ys[0])
	}
	last := ys[len(ys)-1]
	if last > 0.06 {
		t.Errorf("KML improvement at 160 iters = %.2f, want < 0.05-ish", last)
	}
	for i := 1; i < len(ys); i++ {
		if ys[i] > ys[i-1]+1e-9 {
			t.Errorf("improvement not monotonically amortized: %v", ys)
		}
	}
}

func TestFig11(t *testing.T) {
	out := runExp(t, "fig11")
	f := out.(*metrics.Figure)
	for _, s := range f.Series {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] != s.Y[0] {
				t.Errorf("%s latency varies with control processes: %v", s.Name, s.Y)
				break
			}
		}
	}
}

func TestTable4(t *testing.T) {
	tbl := tableOf(t, "tab4")
	// Paper's Table 4 targets, +-0.06 absolute.
	want := map[string]map[string]float64{
		"microVM":        {"redis-get": 1.00, "redis-set": 1.00, "nginx-conn": 1.00, "nginx-sess": 1.00},
		"lupine":         {"redis-get": 1.21, "redis-set": 1.22, "nginx-conn": 1.33, "nginx-sess": 1.14},
		"lupine-general": {"redis-get": 1.19, "redis-set": 1.20, "nginx-conn": 1.29, "nginx-sess": 1.15},
		"lupine-tiny":    {"redis-get": 1.15, "redis-set": 1.16, "nginx-conn": 1.23, "nginx-sess": 1.11},
		"lupine-nokml":   {"redis-get": 1.20, "redis-set": 1.21, "nginx-conn": 1.29, "nginx-sess": 1.16},
		"hermitux":       {"redis-get": 0.66, "redis-set": 0.67},
		"osv-zfs":        {"redis-get": 0.87, "redis-set": 0.53},
		"rump":           {"redis-get": 0.99, "redis-set": 0.99, "nginx-conn": 1.25, "nginx-sess": 0.53},
	}
	for sys, cols := range want {
		for col, target := range cols {
			got := cellF(t, tbl, sys, col)
			if got < target-0.07 || got > target+0.07 {
				t.Errorf("%s/%s = %.2f, want %.2f +- 0.07", sys, col, got, target)
			}
		}
	}
	// The blanks: hermitux and osv have no nginx columns.
	for _, sys := range []string{"hermitux", "osv-zfs"} {
		if got := cell(t, tbl, sys, "nginx-conn"); got != "-" {
			t.Errorf("%s nginx-conn = %q, want -", sys, got)
		}
	}
}

func TestSMP(t *testing.T) {
	tbl := tableOf(t, "sec5smp")
	for _, row := range tbl.Rows {
		name := row[0]
		overhead := cellF(t, tbl, name, "overhead %")
		if overhead <= 0 || overhead > 9 {
			t.Errorf("%s SMP overhead = %.1f%%, want (0, 9]", name, overhead)
		}
		if strings.HasPrefix(name, "futex") && overhead < 3 {
			t.Errorf("futex overhead = %.1f%%, should be the largest (~8%%)", overhead)
		}
		// Every workload runs on the CPUs its column offers: a second
		// CPU takes time off each.
		if one, two := parseMS(t, cell(t, tbl, name, "SMP (1 cpu)")), parseMS(t, cell(t, tbl, name, "SMP (2 cpus)")); two >= one {
			t.Errorf("%s on 2 cpus = %.2f ms, not below 1 cpu's %.2f ms", name, two, one)
		}
	}
	// make -j on 2 CPUs is ~2x faster than SMP on 1.
	one := parseMS(t, cell(t, tbl, "make -j (256 jobs)", "SMP (1 cpu)"))
	two := parseMS(t, cell(t, tbl, "make -j (256 jobs)", "SMP (2 cpus)"))
	if r := one / two; r < 1.7 || r > 2.3 {
		t.Errorf("make -j 2-cpu speedup = %.2f, want ~2", r)
	}
}

func TestForkDegradation(t *testing.T) {
	tbl := tableOf(t, "sec5fork")
	if got := cell(t, tbl, "lupine", "outcome"); !strings.Contains(got, "survived") {
		t.Errorf("lupine fork outcome = %q", got)
	}
	for _, sys := range []string{"hermitux", "osv-zfs", "rump"} {
		if got := cell(t, tbl, sys, "outcome"); !strings.Contains(got, sys) {
			t.Errorf("%s outcome = %q, want failure description", sys, got)
		}
	}
}

func TestBootDetail(t *testing.T) {
	tbl := tableOf(t, "fig7-detail")
	// Timer calibration appears only in the PARAVIRT-less (KML) column.
	calib := cell(t, tbl, "timer calibration", "lupine")
	if calib == "-" || calib == "0" {
		t.Errorf("KML column missing timer calibration: %q", calib)
	}
	if got := cell(t, tbl, "timer calibration", "lupine-nokml"); got != "-" {
		t.Errorf("nokml column has timer calibration: %q", got)
	}
	// Subsystem init dominates microVM's gap over lupine.
	microInit := cellF(t, tbl, "subsystem init", "microvm")
	lupInit := cellF(t, tbl, "subsystem init", "lupine-nokml")
	microTotal := cellF(t, tbl, "TOTAL", "microvm")
	lupTotal := cellF(t, tbl, "TOTAL", "lupine-nokml")
	gap := microTotal - lupTotal
	initGap := microInit - lupInit
	if initGap < 0.8*gap {
		t.Errorf("subsystem init explains only %.1f of %.1f ms gap", initGap, gap)
	}
	// -tiny's kernel-load advantage is marginal (image size isn't the driver).
	tinyTotal := cellF(t, tbl, "TOTAL", "lupine-nokml-tiny")
	if lupTotal-tinyTotal > 1.0 {
		t.Errorf("tiny boots %.2f ms faster; paper found no improvement", lupTotal-tinyTotal)
	}
}

func TestFleet(t *testing.T) {
	tbl := tableOf(t, "fleet")
	if len(tbl.Rows) != 20 {
		t.Fatalf("%d rows, want 20", len(tbl.Rows))
	}
	shared := 0
	for _, row := range tbl.Rows {
		if strings.HasPrefix(row[len(row)-1], "= ") {
			shared++
		}
	}
	if shared < 4 {
		t.Errorf("only %d applications share kernels; the zero-option apps must share", shared)
	}
}

func parseMS(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, " ms"), 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestAblations(t *testing.T) {
	kpti := tableOf(t, "abl-kpti")
	slow := cell(t, kpti, "CONFIG_PAGE_TABLE_ISOLATION", "slowdown")
	v, err := strconv.ParseFloat(strings.TrimSuffix(slow, "x"), 64)
	if err != nil || v < 5 || v > 12 {
		t.Errorf("KPTI slowdown = %q, want ~10x", slow)
	}

	pv := tableOf(t, "abl-paravirt")
	with := cellF(t, pv, "lupine-paravirt", "boot ms")
	without := cellF(t, pv, "lupine-noparavirt", "boot ms")
	if without < 65 || without > 78 || with > 28 {
		t.Errorf("paravirt ablation = %.1f / %.1f ms, want ~23 / ~71", with, without)
	}

	tiny := tableOf(t, "abl-tiny")
	nb := cellF(t, tiny, "lupine", "boot ms")
	tb := cellF(t, tiny, "lupine-tiny", "boot ms")
	// §4.3: -tiny does not improve boot time (image size isn't the driver).
	if tb < nb-2 {
		t.Errorf("tiny boot %.1f ms much faster than normal %.1f ms; paper found no improvement", tb, nb)
	}
}

func TestSurface(t *testing.T) {
	tbl := tableOf(t, "sec-surface")
	micro := cell(t, tbl, "microvm", "code vs microVM")
	base := cell(t, tbl, "lupine-base", "code vs microVM")
	if micro != "100%" {
		t.Errorf("microVM baseline = %q", micro)
	}
	var pct int
	if _, err := fmt.Sscanf(base, "%d%%", &pct); err != nil || pct > 35 || pct < 20 {
		t.Errorf("lupine-base code = %q of microVM, want ~27%%", base)
	}
	// microVM exposes every gated syscall; lupine-base only the handful
	// provided by base options (networking core, POSIX timers), and the
	// table orders strictly: base < redis <= general < microVM.
	exposed := func(row string) (int, int) {
		var a, b int
		if _, err := fmt.Sscanf(cell(t, tbl, row, "gated syscalls exposed"), "%d/%d", &a, &b); err != nil {
			t.Fatalf("%s gated syscalls = %q", row, cell(t, tbl, row, "gated syscalls exposed"))
		}
		return a, b
	}
	ma, mb := exposed("microvm")
	if ma != mb {
		t.Errorf("microVM exposes %d/%d gated syscalls, want all", ma, mb)
	}
	ba, _ := exposed("lupine-base")
	ra, _ := exposed("lupine-redis")
	ga, _ := exposed("lupine-nokml-general")
	if !(ba < ra && ra <= ga && ga < ma) {
		t.Errorf("surface ordering wrong: base %d, redis %d, general %d, microVM %d", ba, ra, ga, ma)
	}
	if ba > mb/3 {
		t.Errorf("lupine-base exposes %d of %d gated syscalls; should be a small base-option remainder", ba, mb)
	}
}
