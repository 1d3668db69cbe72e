package kconfig

import "fmt"

// OptionType is the declared type of a configuration option.
type OptionType int

// Option types, matching the kconfig language.
const (
	TypeBool OptionType = iota
	TypeTristate
	TypeString
	TypeInt
	TypeHex
)

// String renders the type keyword as it appears in Kconfig files.
func (t OptionType) String() string {
	switch t {
	case TypeBool:
		return "bool"
	case TypeTristate:
		return "tristate"
	case TypeString:
		return "string"
	case TypeInt:
		return "int"
	case TypeHex:
		return "hex"
	default:
		return fmt.Sprintf("OptionType(%d)", int(t))
	}
}

// Select is a reverse dependency: enabling the declaring option forces
// Target on whenever Cond (which may be nil) holds.
type Select struct {
	Target string
	Cond   Expr
}

// Default supplies a value for an option the user did not set, guarded by
// an optional condition. Defaults are tried in declaration order.
type Default struct {
	Value Value
	Cond  Expr
}

// Option is a single configuration symbol declaration.
type Option struct {
	Name     string
	Type     OptionType
	Prompt   string // empty means the option is not user-visible
	Dir      string // top-level source directory, e.g. "drivers", "net"
	Help     string
	Depends  Expr // nil means unconditional
	Selects  []Select
	Defaults []Default

	// Choice is the 1-based id of the mutually-exclusive choice group
	// the option belongs to (0 = none). Within a group, exactly one
	// member is enabled: the requested one, or the group's default.
	Choice int
}

// Visible reports whether the option can be set directly by the user in
// the given environment: it must have a prompt and satisfied dependencies.
func (o *Option) Visible(env Env) bool {
	return o.Prompt != "" && EvalOrYes(o.Depends, env).Bool()
}

// Database is an ordered collection of option declarations.
type Database struct {
	byName  map[string]*Option
	ordered []*Option

	// choiceDefault maps a choice group id to its default member name
	// ("" = the group's first member).
	choiceDefault map[int]string
	choices       int
}

// NewDatabase returns an empty option database.
func NewDatabase() *Database {
	return &Database{
		byName:        make(map[string]*Option),
		choiceDefault: make(map[int]string),
	}
}

// newChoice allocates a choice group and returns its id.
func (db *Database) newChoice() int {
	db.choices++
	return db.choices
}

// setChoiceDefault records the group's `default` member.
func (db *Database) setChoiceDefault(id int, member string) {
	db.choiceDefault[id] = member
}

// Add registers an option. Re-declaring a name is an error: the synthetic
// kernel tree never legitimately redefines a symbol.
func (db *Database) Add(o *Option) error {
	if o.Name == "" {
		return fmt.Errorf("kconfig: option with empty name")
	}
	if _, dup := db.byName[o.Name]; dup {
		return fmt.Errorf("kconfig: duplicate option %s", o.Name)
	}
	db.byName[o.Name] = o
	db.ordered = append(db.ordered, o)
	return nil
}

// MustAdd is Add that panics on error, for use by generated databases.
func (db *Database) MustAdd(o *Option) {
	if err := db.Add(o); err != nil {
		panic(err)
	}
}

// Lookup returns the named option, or nil.
func (db *Database) Lookup(name string) *Option { return db.byName[name] }

// Len reports the number of declared options.
func (db *Database) Len() int { return len(db.ordered) }

// Options returns the options in declaration order. The slice is shared;
// callers must not mutate it.
func (db *Database) Options() []*Option { return db.ordered }

// CountByDir tallies declared options per source directory.
func (db *Database) CountByDir() map[string]int {
	counts := make(map[string]int)
	for _, o := range db.ordered {
		counts[o.Dir]++
	}
	return counts
}

// Validate checks referential integrity: every symbol referenced by a
// dependency, select or default condition must be declared. It returns all
// problems found.
func (db *Database) Validate() []error {
	var errs []error
	check := func(owner string, e Expr, what string) {
		if e == nil {
			return
		}
		for _, s := range e.Symbols(nil) {
			if db.byName[s] == nil {
				errs = append(errs, fmt.Errorf("kconfig: %s: %s references undeclared symbol %s", owner, what, s))
			}
		}
	}
	for _, o := range db.ordered {
		check(o.Name, o.Depends, "depends on")
		for _, s := range o.Selects {
			if db.byName[s.Target] == nil {
				errs = append(errs, fmt.Errorf("kconfig: %s: select references undeclared symbol %s", o.Name, s.Target))
			}
			check(o.Name, s.Cond, "select condition")
		}
		for _, d := range o.Defaults {
			check(o.Name, d.Cond, "default condition")
		}
	}
	return errs
}
