package kconfig

import (
	"testing"
	"testing/quick"
)

const minimizeKconfig = `
config CORE
	bool "core"
	default y

config NET
	bool "networking"

config INET
	bool "tcp/ip"
	depends on NET

config HIDDEN
	bool

config EXTRA
	bool "extra"
	depends on INET
	default y
`

func minimizeDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase()
	if err := NewParser(db).ParseString("Kconfig", minimizeKconfig); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestMinimizeDropsDerivedSymbols(t *testing.T) {
	db := minimizeDB(t)
	res, err := Resolve(db, NewRequest().Enable("NET", "INET"))
	if err != nil {
		t.Fatal(err)
	}
	// The resolved config contains CORE (default) and EXTRA (default with
	// its dependency met) on top of the two requested.
	if got := res.Config.Len(); got != 4 {
		t.Fatalf("resolved config has %d symbols: %v", got, res.Config.Names())
	}
	min, err := Minimize(db, res.Config)
	if err != nil {
		t.Fatal(err)
	}
	names := min.Names()
	if len(names) != 2 || names[0] != "INET" || names[1] != "NET" {
		t.Fatalf("minimized request = %v, want [INET NET]", names)
	}
	// Round trip: the minimal request regenerates the exact config.
	back, err := Resolve(db, min)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Config.Equal(res.Config) {
		t.Error("minimized request does not reproduce the config")
	}
}

func TestMinimizeEmptyAndDefaultOnly(t *testing.T) {
	db := minimizeDB(t)
	res, err := Resolve(db, NewRequest())
	if err != nil {
		t.Fatal(err)
	}
	min, err := Minimize(db, res.Config)
	if err != nil {
		t.Fatal(err)
	}
	if len(min.Names()) != 0 {
		t.Errorf("default-only config minimized to %v, want empty", min.Names())
	}
}

func TestMinimizeRejectsForeignConfig(t *testing.T) {
	db := minimizeDB(t)
	cfg := NewConfig()
	cfg.Enable("HIDDEN") // cannot be user-set: no prompt, no default
	if _, err := Minimize(db, cfg); err == nil {
		t.Error("non-reproducible config minimized without error")
	}
}

// Property: for any user selection over the visible symbols, Minimize
// yields a request that (a) reproduces the resolved config and (b) is no
// larger than the config itself.
func TestMinimizeRoundTripProperty(t *testing.T) {
	db := minimizeDB(t)
	visible := []string{"CORE", "NET", "INET", "EXTRA"}
	f := func(mask uint8) bool {
		req := NewRequest()
		for i, n := range visible {
			if mask&(1<<i) != 0 {
				req.Enable(n)
			}
		}
		res, err := Resolve(db, req)
		if err != nil {
			return false
		}
		min, err := Minimize(db, res.Config)
		if err != nil {
			return false
		}
		if len(min.Names()) > res.Config.Len() {
			return false
		}
		back, err := Resolve(db, min)
		if err != nil {
			return false
		}
		return back.Config.Equal(res.Config)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 64}); err != nil {
		t.Fatal(err)
	}
}
