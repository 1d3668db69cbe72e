package kconfig

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

const sampleKconfig = `
config FUTEX
	bool "Enable futex support"
	default y
	help
	  Fast user-space locking. Disabling this breaks glibc-based
	  applications.

config EPOLL
	bool "Enable eventpoll support"
	depends on FUTEX
	default y

config NET
	bool "Networking support"

config INET
	bool "TCP/IP networking"
	depends on NET

config IPV6
	bool "IPv6 protocol"
	depends on NET
	depends on INET

config CRYPTO_LIB
	bool
`

const fsKconfig = `
config EXT2_FS
	bool "Second extended fs support"
	depends on NET
	default y

config PROC_FS
	bool "/proc file system support"
	default y
`

func parseSample(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase()
	p := NewParser(db)
	if err := p.ParseString("Kconfig", sampleKconfig); err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := p.ParseString("fs/Kconfig", fsKconfig); err != nil {
		t.Fatalf("parse: %v", err)
	}
	return db
}

func TestParseBasics(t *testing.T) {
	db := parseSample(t)
	if got, want := db.Len(), 8; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	futex := db.Lookup("FUTEX")
	if futex == nil {
		t.Fatal("FUTEX not found")
	}
	if futex.Prompt != "Enable futex support" || !futex.Default {
		t.Errorf("FUTEX = %+v", futex)
	}
	if !strings.Contains(futex.Help, "Fast user-space locking") {
		t.Errorf("help lost: %q", futex.Help)
	}
	// CRYPTO_LIB has no prompt: not user-visible.
	if cl := db.Lookup("CRYPTO_LIB"); cl.Prompt != "" || cl.Default {
		t.Errorf("CRYPTO_LIB = %+v, want hidden without default", cl)
	}
}

func TestParseDepends(t *testing.T) {
	db := parseSample(t)
	for name, want := range map[string]string{
		"FUTEX": "<nil>",
		"EPOLL": "FUTEX",
		"INET":  "NET",
		// Each `depends on` line adds a conjunct.
		"IPV6": "NET && INET",
	} {
		if got := fmt.Sprint(db.Lookup(name).Depends); got != want {
			t.Errorf("%s depends = %q, want %q", name, got, want)
		}
	}
}

// Help text ends, as in Kconfig, at the first line indented less than its
// own first line: an attribute written after the help block still belongs
// to the option.
func TestParseHelpEndsAtDedent(t *testing.T) {
	src := "config A\n\tbool \"a\"\n\thelp\n\t  text\n\n\t    more\n\tdepends on B\n" +
		"config B\n\tbool \"b\"\n\thelp\n\t  b's text\nconfig C\n\tbool \"c\"\n\thelp\nconfig D\n\tbool \"d\"\n"
	db := NewDatabase()
	if err := NewParser(db).ParseString("Kconfig", src); err != nil {
		t.Fatal(err)
	}
	a := db.Lookup("A")
	if got := fmt.Sprint(a.Depends); got != "B" {
		t.Errorf("A depends = %q, want B", got)
	}
	if a.Help != "text\nmore" {
		t.Errorf("A help = %q, want %q", a.Help, "text\nmore")
	}
	if b := db.Lookup("B"); b.Help != "b's text" {
		t.Errorf("B help = %q", b.Help)
	}
	if c := db.Lookup("C"); c.Help != "" || db.Lookup("D") == nil {
		t.Errorf("empty help block: C help = %q, D declared = %v", c.Help, db.Lookup("D") != nil)
	}
}

func TestParseDirs(t *testing.T) {
	db := parseSample(t)
	if got := db.Lookup("EXT2_FS").Dir; got != "fs" {
		t.Errorf("EXT2_FS dir = %q, want fs", got)
	}
	counts := db.CountByDir()
	if counts["fs"] != 2 || counts["."] != 6 {
		t.Errorf("CountByDir = %v", counts)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"dup":                       "config A\n\tbool\nconfig A\n\tbool\n",
		"orphan attr":               "bool \"x\"\n",
		"bad depends":               "config A\n\tdepends FUTEX\n",
		"bad expr":                  "config A\n\tdepends on A &&\n",
		"unknown kw":                "frobnicate A\n",
		"empty config":              "config\n",
		"two names":                 "config A B\n",
		"default n":                 "config A\n\tbool \"a\"\n\tdefault n\n",
		"help with text":            "config A\n\tbool \"a\"\n\thelp me\n",
		"choice default, two names": "choice\n\tdefault A B\nconfig A\n\tbool \"a\"\nendchoice\n",
	}
	for name, src := range cases {
		db := NewDatabase()
		if err := NewParser(db).ParseString("Kconfig", src); err == nil {
			t.Errorf("%s: parse succeeded, want error", name)
		}
	}
}

// The parser implements only the subset of Kconfig the kernel tree is
// written in. A fragment using anything else fails to load, in ParseString
// or in Validate (the two steps kerneldb's build runs): it never loads as
// a different kernel.
func TestRemovedConstructsFailToLoad(t *testing.T) {
	const b = "config B\n\tbool \"b\"\n"
	cases := map[string]string{
		"select":            "config A\n\tbool \"a\"\n\tselect B\n" + b,
		"tristate":          "config A\n\ttristate \"a\"\n",
		"string":            "config A\n\tstring \"a\"\n",
		"int":               "config A\n\tint \"a\"\n",
		"hex":               "config A\n\thex \"a\"\n",
		"menuconfig":        "menuconfig A\n\tbool \"a\"\n",
		"menu":              "menu \"m\"\n" + b + "endmenu\n",
		"endmenu":           "endmenu\n",
		"if":                "if B\nconfig A\n\tbool \"a\"\nendif\n" + b,
		"endif":             "endif\n",
		"source":            "source \"fs/Kconfig\"\n",
		"mainmenu":          "mainmenu \"Linux Kernel Configuration\"\n",
		"comment":           "comment \"c\"\n",
		"---help---":        "config A\n\tbool \"a\"\n\t---help---\n\t  text\n",
		"default m":         "config A\n\tbool \"a\"\n\tdefault m\n",
		"default y if":      "config A\n\tbool \"a\"\n\tdefault y if B\n" + b,
		"choice default if": "choice\n\tdefault A if B\nconfig A\n\tbool \"a\"\nendchoice\n" + b,
		"prompt if":         "config A\n\tbool\n\tprompt \"a\" if B\n" + b,
		"bool prompt if":    "config A\n\tbool \"a\" if B\n" + b,
		"||":                "config A\n\tbool \"a\"\n\tdepends on A || B\n" + b,
		"=":                 "config A\n\tbool \"a\"\n\tdepends on B = y\n" + b,
		"!=":                "config A\n\tbool \"a\"\n\tdepends on B != y\n" + b,
		"constant y":        "config A\n\tbool \"a\"\n\tdepends on y\n",
	}
	for name, src := range cases {
		db := NewDatabase()
		err := NewParser(db).ParseString("Kconfig", src)
		if errs := db.Validate(); err == nil && len(errs) > 0 {
			err = errs[0]
		}
		if err == nil {
			t.Errorf("%s: loaded without error", name)
		}
	}
}

func TestDatabaseValidate(t *testing.T) {
	db := parseSample(t)
	if errs := db.Validate(); len(errs) != 0 {
		t.Fatalf("Validate = %v, want clean", errs)
	}
	// Introduce a dangling reference.
	db.MustAdd(&Option{Name: "BROKEN", Depends: Symbol("NO_SUCH")})
	if errs := db.Validate(); len(errs) != 1 {
		t.Fatalf("Validate = %v, want 1 error", errs)
	}
}

// A prompt is exactly one quoted string: "if" inside the quotes is text.
func TestPromptRespectsQuotes(t *testing.T) {
	db := NewDatabase()
	if err := NewParser(db).ParseString("Kconfig", "config A\n\tbool \"a if b\"\nconfig B\n\tprompt \"b\"\n"); err != nil {
		t.Fatal(err)
	}
	if got := db.Lookup("A").Prompt; got != "a if b" {
		t.Errorf("A prompt = %q", got)
	}
	if got := db.Lookup("B").Prompt; got != "b" {
		t.Errorf("B prompt = %q", got)
	}
	for _, bad := range []string{`bool a`, `bool "a`, `bool "a" "b"`, `prompt "a" if B`} {
		if err := NewParser(NewDatabase()).ParseString("Kconfig", "config A\n\t"+bad+"\n"); err == nil {
			t.Errorf("%s: parse succeeded, want error", bad)
		}
	}
}

// Property: the parser never panics on arbitrary junk — it either builds
// a database or returns an error.
func TestParserRobustnessProperty(t *testing.T) {
	f := func(src string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		db := NewDatabase()
		NewParser(db).ParseString("Kconfig", src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the expression lexer/parser never panics.
func TestExprParserRobustnessProperty(t *testing.T) {
	f := func(src string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		ParseExpr(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
