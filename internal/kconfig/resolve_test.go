package kconfig

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestResolveDefaults(t *testing.T) {
	db := parseSample(t)
	res, err := Resolve(db, NewRequest())
	if err != nil {
		t.Fatal(err)
	}
	cfg := res.Config
	// FUTEX defaults y; EPOLL defaults y and depends on FUTEX; PROC_FS
	// defaults y from the sourced file.
	for _, n := range []string{"FUTEX", "EPOLL", "PROC_FS"} {
		if !cfg.Enabled(n) {
			t.Errorf("%s not enabled by defaults; config=%v", n, cfg.Names())
		}
	}
	// NET is off by default, so EXT2_FS's conditional default must not fire.
	if cfg.Enabled("NET") || cfg.Enabled("EXT2_FS") {
		t.Errorf("conditional default fired without NET: %v", cfg.Names())
	}
}

func TestResolveUserSelectionAndSelect(t *testing.T) {
	db := parseSample(t)
	res, err := Resolve(db, NewRequest().Enable("NET", "INET"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := res.Config
	if !cfg.Enabled("NET") || !cfg.Enabled("INET") {
		t.Fatalf("user enables lost: %v", cfg.Names())
	}
	// INET selects CRYPTO_LIB (not user-visible) when NET.
	if !cfg.Enabled("CRYPTO_LIB") {
		t.Errorf("select did not propagate: %v", cfg.Names())
	}
	// EXT2_FS conditional default fires now that NET=y, as a module.
	if got := cfg.Get("EXT2_FS").Tri; got != Module {
		t.Errorf("EXT2_FS = %v, want m", got)
	}
}

func TestResolveDependencyGating(t *testing.T) {
	db := parseSample(t)
	// IPV6 depends on NET && INET; enabling it alone must not take effect.
	res, err := Resolve(db, NewRequest().Enable("IPV6"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Config.Enabled("IPV6") {
		t.Errorf("IPV6 enabled despite unmet deps: %v", res.Config.Names())
	}
	// With deps satisfied it applies.
	res, err = Resolve(db, NewRequest().Enable("NET", "INET", "IPV6"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Config.Enabled("IPV6") {
		t.Errorf("IPV6 not enabled with satisfied deps: %v", res.Config.Names())
	}
	if len(res.Warnings) != 0 {
		t.Errorf("unexpected warnings: %v", res.Warnings)
	}
}

func TestResolveSelectOverridesDeps(t *testing.T) {
	// A select forces its target on even with unmet dependencies,
	// producing a warning (kconfig's notorious behaviour).
	src := `
config A
	bool "a"
	select B

config B
	bool "b"
	depends on C

config C
	bool "c"
`
	db := NewDatabase()
	if err := NewParser(db, nil).ParseString("Kconfig", src); err != nil {
		t.Fatal(err)
	}
	res, err := Resolve(db, NewRequest().Enable("A"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Config.Enabled("B") {
		t.Fatalf("select did not force B: %v", res.Config.Names())
	}
	if len(res.Warnings) != 1 || res.Warnings[0].Symbol != "B" {
		t.Fatalf("warnings = %v, want unmet-dependency warning for B", res.Warnings)
	}
	if !strings.Contains(res.Warnings[0].String(), "unmet") {
		t.Errorf("warning text = %q", res.Warnings[0])
	}
}

func TestResolveUnknownSymbol(t *testing.T) {
	db := parseSample(t)
	if _, err := Resolve(db, NewRequest().Enable("NO_SUCH_OPTION")); err == nil {
		t.Fatal("expected error for undeclared symbol")
	}
}

func TestResolveSelectChain(t *testing.T) {
	src := `
config A
	bool "a"
	select B

config B
	bool
	select C

config C
	bool
	select D

config D
	bool
`
	db := NewDatabase()
	if err := NewParser(db, nil).ParseString("Kconfig", src); err != nil {
		t.Fatal(err)
	}
	res, err := Resolve(db, NewRequest().Enable("A"))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"A", "B", "C", "D"} {
		if !res.Config.Enabled(n) {
			t.Errorf("%s not enabled through select chain", n)
		}
	}
}

func TestResolveBoolPromotesModule(t *testing.T) {
	src := `
config T
	tristate "t"
	select B

config B
	bool
`
	db := NewDatabase()
	if err := NewParser(db, nil).ParseString("Kconfig", src); err != nil {
		t.Fatal(err)
	}
	res, err := Resolve(db, NewRequest().Set("T", TriValue(Module)))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Config.Get("T").Tri; got != Module {
		t.Fatalf("T = %v, want m", got)
	}
	// A bool selected by an m symbol is promoted to y.
	if got := res.Config.Get("B").Tri; got != Yes {
		t.Fatalf("B = %v, want y", got)
	}
}

func TestDependencyClosure(t *testing.T) {
	db := parseSample(t)
	got, err := DependencyClosure(db, []string{"IPV6"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"NET", "INET", "IPV6"}
	if len(got) != len(want) {
		t.Fatalf("closure = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("closure = %v, want %v", got, want)
		}
	}
	if _, err := DependencyClosure(db, []string{"MISSING"}); err == nil {
		t.Fatal("expected error for undeclared symbol")
	}
}

func TestConfigDiffAndDotConfig(t *testing.T) {
	a := NewConfig()
	a.Enable("FUTEX")
	a.Enable("EPOLL")
	a.Set("CMDLINE", StrValue("console=ttyS0"))
	b := a.Clone()
	b.Disable("EPOLL")
	b.Enable("SMP")
	b.Set("CMDLINE", StrValue("quiet"))

	d := b.DiffFrom(a)
	if len(d.Added) != 1 || d.Added[0] != "SMP" {
		t.Errorf("Added = %v", d.Added)
	}
	if len(d.Removed) != 1 || d.Removed[0] != "EPOLL" {
		t.Errorf("Removed = %v", d.Removed)
	}
	if len(d.Changed) != 1 || d.Changed[0] != "CMDLINE" {
		t.Errorf("Changed = %v", d.Changed)
	}

	if got, want := a.String(), "CONFIG_CMDLINE=console=ttyS0\nCONFIG_EPOLL=y\nCONFIG_FUTEX=y\n"; got != want {
		t.Errorf(".config =\n%s\nwant\n%s", got, want)
	}
}

// TestConfigStringGolden pins the .config encoding lupine-build writes:
// one CONFIG_ line per set symbol in name order, tristate m as "m",
// string values verbatim (quotes included), and no line at all for a
// symbol that is n, where Linux would write "# CONFIG_X is not set".
func TestConfigStringGolden(t *testing.T) {
	c := NewConfig()
	c.Enable("SMP")
	c.Set("VIRTIO_NET", TriValue(Module))
	c.Set("CMDLINE", StrValue(`"console=ttyS0 quiet"`))
	c.Set("NR_CPUS", StrValue("4"))
	c.Enable("EPOLL")
	c.Disable("EPOLL")
	c.Set("FUTEX", TriValue(No))
	const want = `CONFIG_CMDLINE="console=ttyS0 quiet"
CONFIG_NR_CPUS=4
CONFIG_SMP=y
CONFIG_VIRTIO_NET=m
`
	if got := c.String(); got != want {
		t.Errorf(".config =\n%s\nwant\n%s", got, want)
	}
	if got := NewConfig().String(); got != "" {
		t.Errorf("empty config renders %q", got)
	}
}

// Property: resolution is idempotent — feeding a resolved config back as a
// request reproduces the same config (on a select-free database where all
// options are visible).
func TestResolveIdempotentProperty(t *testing.T) {
	src := `
config A
	bool "a"

config B
	bool "b"
	depends on A

config C
	bool "c"
	depends on A && B

config D
	bool "d"
	default y

config E
	bool "e"
	depends on !D
`
	db := NewDatabase()
	if err := NewParser(db, nil).ParseString("Kconfig", src); err != nil {
		t.Fatal(err)
	}
	names := []string{"A", "B", "C", "D", "E"}
	f := func(mask uint8) bool {
		req := NewRequest()
		for i, n := range names {
			if mask&(1<<i) != 0 {
				req.Enable(n)
			}
		}
		res1, err := Resolve(db, req)
		if err != nil {
			return false
		}
		res2, err := Resolve(db, RequestFromConfig(res1.Config))
		if err != nil {
			return false
		}
		return res2.Config.Equal(res1.Config)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 64}); err != nil {
		t.Fatal(err)
	}
}

// Property: every enabled symbol in a resolved config either has satisfied
// dependencies or is the target of an active select (closure invariant).
func TestResolveClosureProperty(t *testing.T) {
	db := parseSample(t)
	all := []string{"FUTEX", "EPOLL", "NET", "INET", "IPV6", "EXT2_FS", "PROC_FS"}
	f := func(mask uint8) bool {
		req := NewRequest()
		for i, n := range all {
			if mask&(1<<uint(i%8)) != 0 && i < 8 {
				req.Enable(n)
			}
		}
		res, err := Resolve(db, req)
		if err != nil {
			return false
		}
		forced := scanSelectedSymbols(db, res.Config)
		for _, n := range res.Config.Names() {
			o := db.Lookup(n)
			if o == nil {
				return false
			}
			if !EvalOrYes(o.Depends, res.Config).Bool() && !forced[n] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 128}); err != nil {
		t.Fatal(err)
	}
}

func TestRequestNamesSorted(t *testing.T) {
	r := NewRequest().Enable("Z", "A", "M")
	got := r.Names()
	if !sort.StringsAreSorted(got) || len(got) != 3 {
		t.Errorf("Names = %v", got)
	}
}

// countingExpr is a `depends on` that counts its evaluations.
type countingExpr struct{ evals *int }

func (e countingExpr) Eval(Env) Tristate             { *e.evals++; return Yes }
func (e countingExpr) Symbols(dst []string) []string { return dst }
func (e countingExpr) String() string                { return "counted" }

// A round visits only the options it can set: the requested ones, those
// with defaults, choice members and select targets. The 10,000 others
// resolve to n without their dependencies ever being evaluated.
func TestResolveSkipsInertOptions(t *testing.T) {
	evals := 0
	db := NewDatabase()
	for i := 0; i < 10000; i++ {
		db.MustAdd(&Option{Name: fmt.Sprintf("INERT%05d", i), Type: TypeBool, Prompt: "inert", Depends: countingExpr{&evals}})
	}
	db.MustAdd(&Option{Name: "ASKED", Type: TypeBool, Prompt: "asked", Selects: []Select{{Target: "PULLED"}}})
	db.MustAdd(&Option{Name: "PULLED", Type: TypeBool})
	db.MustAdd(&Option{Name: "DEFAULTED", Type: TypeBool, Defaults: []Default{{Value: TriValue(Yes)}}})
	db.MustAdd(&Option{Name: "MEMBER", Type: TypeBool, Prompt: "member", Choice: db.newChoice()})
	res, err := Resolve(db, NewRequest().Enable("ASKED"))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Config.Names(); !slices.Equal(got, []string{"ASKED", "DEFAULTED", "MEMBER", "PULLED"}) {
		t.Errorf("config = %v", got)
	}
	if evals != 0 {
		t.Errorf("Resolve evaluated inert options' dependencies %d times, want 0", evals)
	}
}
