package kconfig

import (
	"fmt"
	"slices"
	"sort"
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
	// defaults y from the second file.
	for _, n := range []string{"FUTEX", "EPOLL", "PROC_FS"} {
		if !cfg.Enabled(n) {
			t.Errorf("%s not enabled by defaults; config=%v", n, cfg.Names())
		}
	}
	// NET is off by default, so EXT2_FS's default must not fire.
	if cfg.Enabled("NET") || cfg.Enabled("EXT2_FS") {
		t.Errorf("default fired without its dependency NET: %v", cfg.Names())
	}
}

func TestResolveUserSelection(t *testing.T) {
	db := parseSample(t)
	res, err := Resolve(db, NewRequest().Enable("NET", "INET"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := res.Config
	if !cfg.Enabled("NET") || !cfg.Enabled("INET") {
		t.Fatalf("user enables lost: %v", cfg.Names())
	}
	// EXT2_FS's default fires now that its dependency NET is y.
	if !cfg.Enabled("EXT2_FS") {
		t.Errorf("EXT2_FS default did not fire with NET: %v", cfg.Names())
	}
	// CRYPTO_LIB is invisible and has no default: nothing turns it on.
	if cfg.Enabled("CRYPTO_LIB") {
		t.Errorf("CRYPTO_LIB enabled: %v", cfg.Names())
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

func TestResolveUnknownSymbol(t *testing.T) {
	db := parseSample(t)
	if _, err := Resolve(db, NewRequest().Enable("NO_SUCH_OPTION")); err == nil {
		t.Fatal("expected error for undeclared symbol")
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
	b := a.Clone()
	b.Disable("EPOLL")
	b.Enable("SMP")

	d := b.DiffFrom(a)
	if len(d.Added) != 1 || d.Added[0] != "SMP" {
		t.Errorf("Added = %v", d.Added)
	}
	if len(d.Removed) != 1 || d.Removed[0] != "EPOLL" {
		t.Errorf("Removed = %v", d.Removed)
	}

	if got, want := a.String(), "CONFIG_EPOLL=y\nCONFIG_FUTEX=y\n"; got != want {
		t.Errorf(".config =\n%s\nwant\n%s", got, want)
	}
}

// TestConfigStringGolden pins the .config encoding lupine-build writes:
// one CONFIG_ line per set symbol in name order, and no line at all for a
// symbol that is n, where Linux would write "# CONFIG_X is not set".
func TestConfigStringGolden(t *testing.T) {
	c := NewConfig()
	c.Enable("SMP")
	c.Set("VIRTIO_NET", Yes)
	c.Enable("EPOLL")
	c.Disable("EPOLL")
	c.Enable("FUTEX")
	c.Set("FUTEX", No)
	const want = `CONFIG_SMP=y
CONFIG_VIRTIO_NET=y
`
	if got := c.String(); got != want {
		t.Errorf(".config =\n%s\nwant\n%s", got, want)
	}
	if got := NewConfig().String(); got != "" {
		t.Errorf("empty config renders %q", got)
	}
}

// Property: resolution is idempotent — feeding a resolved config back as a
// request reproduces the same config (on a database where all options are
// visible).
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
	if err := NewParser(db).ParseString("Kconfig", src); err != nil {
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

// Property: every enabled symbol in a resolved config has satisfied
// dependencies (closure invariant).
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
		for _, n := range res.Config.Names() {
			o := db.Lookup(n)
			if o == nil {
				return false
			}
			if !EvalOrYes(o.Depends, res.Config).Bool() {
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

func (e countingExpr) Eval(*Config) Tristate         { *e.evals++; return Yes }
func (e countingExpr) Symbols(dst []string) []string { return dst }
func (e countingExpr) String() string                { return "counted" }

// A round visits only the options it can set: the requested ones, those
// with defaults and choice members. The 10,000 others resolve to n
// without their dependencies ever being evaluated.
func TestResolveSkipsInertOptions(t *testing.T) {
	evals := 0
	db := NewDatabase()
	for i := 0; i < 10000; i++ {
		db.MustAdd(&Option{Name: fmt.Sprintf("INERT%05d", i), Prompt: "inert", Depends: countingExpr{&evals}})
	}
	db.MustAdd(&Option{Name: "ASKED", Prompt: "asked"})
	db.MustAdd(&Option{Name: "DEFAULTED", Default: true})
	db.MustAdd(&Option{Name: "MEMBER", Prompt: "member", Choice: db.newChoice()})
	res, err := Resolve(db, NewRequest().Enable("ASKED"))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Config.Names(); !slices.Equal(got, []string{"ASKED", "DEFAULTED", "MEMBER"}) {
		t.Errorf("config = %v", got)
	}
	if evals != 0 {
		t.Errorf("Resolve evaluated inert options' dependencies %d times, want 0", evals)
	}
}
