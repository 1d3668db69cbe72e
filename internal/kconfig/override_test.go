package kconfig

import "testing"

// An explicit n in the request must win over a default y, so space-tuned
// profiles (lupine-tiny) can switch default-on options off.
func TestResolveExplicitOffBeatsDefault(t *testing.T) {
	src := `
config BASE_FULL
	bool "full-size data structures"
	default y

config OTHER
	bool "other"
	default y
`
	db := NewDatabase()
	if err := NewParser(db).ParseString("Kconfig", src); err != nil {
		t.Fatal(err)
	}
	res, err := Resolve(db, NewRequest().Set("BASE_FULL", No))
	if err != nil {
		t.Fatal(err)
	}
	if res.Config.Enabled("BASE_FULL") {
		t.Error("explicit n did not suppress default y")
	}
	if !res.Config.Enabled("OTHER") {
		t.Error("untouched default y lost")
	}
}
