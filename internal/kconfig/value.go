// Package kconfig implements the subset of the Kconfig language the
// synthetic Linux 4.0 tree is written in: bool options with prompts and
// help text, `depends on` expressions over symbols joined by `&&` and `!`,
// an unconditional `default y`, and choice groups with a default member. A
// parser reads the textual DSL and rejects every other construct, and a
// resolver computes a consistent configuration from user selections — the
// mechanism Lupine Linux uses for kernel specialization (§3.1 of the
// paper).
package kconfig

import "fmt"

// Tristate is the value of an option. Every option is bool, so a value is
// No or Yes; the type keeps the kernel's name.
type Tristate int

// Tristate values.
const (
	No Tristate = iota
	Yes
)

// String renders the value the way .config files do.
func (t Tristate) String() string {
	switch t {
	case No:
		return "n"
	case Yes:
		return "y"
	default:
		return fmt.Sprintf("Tristate(%d)", int(t))
	}
}

// And is the conjunction.
func (t Tristate) And(u Tristate) Tristate { return min(t, u) }

// Not is the negation.
func (t Tristate) Not() Tristate { return Yes - t }

// Bool reports whether the value counts as enabled.
func (t Tristate) Bool() bool { return t != No }

// TriValue returns the request value that sets an option to t.
func TriValue(t Tristate) Tristate { return t }
