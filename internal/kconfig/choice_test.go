package kconfig

import (
	"strings"
	"testing"
)

const choiceKconfig = `
config CORE
	bool "core"
	default y

choice
	prompt "Choose SLAB allocator"
	default SLUB

config SLAB
	bool "SLAB"

config SLUB
	bool "SLUB (Unqueued Allocator)"

config SLOB
	bool "SLOB (Simple Allocator)"

endchoice

config AFTER
	bool "after the choice"
`

func choiceDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase()
	if err := NewParser(db).ParseString("mm/Kconfig", choiceKconfig); err != nil {
		t.Fatal(err)
	}
	return db
}

// A choice default that is undeclared, or that belongs to another
// group, fails to load rather than resolving the group to its first
// member; the groups are reported in order.
func TestChoiceDefaultMustBeAMember(t *testing.T) {
	const src = `
choice
	default SLOB

config SLAB
	bool "SLAB"

endchoice

choice
	default SLUBB

config SLUB
	bool "SLUB"

endchoice

choice
	default SLOB

config SLOB
	bool "SLOB"

endchoice
`
	db := NewDatabase()
	if err := NewParser(db).ParseString("mm/Kconfig", src); err != nil {
		t.Fatal(err)
	}
	errs := db.Validate()
	var got []string
	for _, err := range errs {
		got = append(got, err.Error())
	}
	want := []string{
		"kconfig: choice 1: default SLOB is not one of its members",
		"kconfig: choice 2: default SLUBB is undeclared",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("Validate = %q, want %q", got, want)
	}
	if errs := choiceDB(t).Validate(); len(errs) != 0 {
		t.Errorf("a member default: Validate = %v, want clean", errs)
	}
}

func TestChoiceDefaultWins(t *testing.T) {
	db := choiceDB(t)
	res, err := Resolve(db, NewRequest())
	if err != nil {
		t.Fatal(err)
	}
	cfg := res.Config
	if !cfg.Enabled("SLUB") {
		t.Error("choice default SLUB not enabled")
	}
	if cfg.Enabled("SLAB") || cfg.Enabled("SLOB") {
		t.Errorf("multiple choice members enabled: %v", cfg.Names())
	}
}

func TestChoiceExplicitSelection(t *testing.T) {
	db := choiceDB(t)
	res, err := Resolve(db, NewRequest().Enable("SLOB"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Config.Enabled("SLOB") || res.Config.Enabled("SLUB") || res.Config.Enabled("SLAB") {
		t.Errorf("SLOB selection failed: %v", res.Config.Names())
	}
	if len(res.Warnings) != 0 {
		t.Errorf("unexpected warnings: %v", res.Warnings)
	}
}

func TestChoiceConflictWarns(t *testing.T) {
	db := choiceDB(t)
	res, err := Resolve(db, NewRequest().Enable("SLAB", "SLOB"))
	if err != nil {
		t.Fatal(err)
	}
	// Declaration order: SLAB wins; SLOB reported.
	if !res.Config.Enabled("SLAB") || res.Config.Enabled("SLOB") {
		t.Errorf("conflict resolution wrong: %v", res.Config.Names())
	}
	if len(res.Warnings) != 1 || res.Warnings[0].Symbol != "SLOB" {
		t.Errorf("warnings = %v, want SLOB conflict", res.Warnings)
	}
}

func TestChoiceOutsideOptionsUnaffected(t *testing.T) {
	db := choiceDB(t)
	res, err := Resolve(db, NewRequest().Enable("AFTER"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Config.Enabled("AFTER") || !res.Config.Enabled("CORE") {
		t.Errorf("non-choice options broken: %v", res.Config.Names())
	}
	// AFTER is not a group member.
	if db.Lookup("AFTER").Choice != 0 || db.Lookup("SLUB").Choice == 0 {
		t.Error("choice membership tagging wrong")
	}
}

func TestChoiceParseErrors(t *testing.T) {
	cases := map[string]string{
		"unterminated": "choice\nconfig A\n\tbool \"a\"\n",
		"stray end":    "endchoice\n",
		"nested":       "choice\nchoice\nendchoice\nendchoice\n",
	}
	for name, src := range cases {
		db := NewDatabase()
		if err := NewParser(db).ParseString("Kconfig", src); err == nil {
			t.Errorf("%s: parse succeeded", name)
		}
	}
}

func TestChoiceMinimize(t *testing.T) {
	db := choiceDB(t)
	// A non-default member must survive minimization; the default must not.
	res, err := Resolve(db, NewRequest().Enable("SLOB"))
	if err != nil {
		t.Fatal(err)
	}
	min, err := Minimize(db, res.Config)
	if err != nil {
		t.Fatal(err)
	}
	names := min.Names()
	if len(names) != 1 || names[0] != "SLOB" {
		t.Errorf("minimized = %v, want [SLOB]", names)
	}
	res2, err := Resolve(db, NewRequest().Enable("SLUB"))
	if err != nil {
		t.Fatal(err)
	}
	min2, err := Minimize(db, res2.Config)
	if err != nil {
		t.Fatal(err)
	}
	if len(min2.Names()) != 0 {
		t.Errorf("default member kept in defconfig: %v", min2.Names())
	}
}
