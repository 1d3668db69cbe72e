package kconfig

import "fmt"

// Option is a single configuration symbol declaration. Every option is
// bool.
type Option struct {
	Name    string
	Prompt  string // empty means the option is not user-visible
	Dir     string // top-level source directory, e.g. "drivers", "net"
	Help    string
	Depends Expr // nil means unconditional
	Default bool // `default y`: y while Depends holds, unless a request sets the visible option

	// Choice is the 1-based id of the mutually-exclusive choice group
	// the option belongs to (0 = none). Within a group, exactly one
	// member is enabled: the requested one, or the group's default.
	Choice int
}

// Visible reports whether the option can be set directly by the user in
// the given configuration: it must have a prompt and satisfied
// dependencies.
func (o *Option) Visible(cfg *Config) bool {
	return o.Prompt != "" && EvalOrYes(o.Depends, cfg).Bool()
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

// Validate checks referential integrity: every symbol a dependency
// references must be declared, and every choice group's default must be
// one of its own members. It returns all problems found, the choice
// groups' in id order.
func (db *Database) Validate() []error {
	var errs []error
	for _, o := range db.ordered {
		if o.Depends == nil {
			continue
		}
		for _, s := range o.Depends.Symbols(nil) {
			if db.byName[s] == nil {
				errs = append(errs, fmt.Errorf("kconfig: %s: depends on references undeclared symbol %s", o.Name, s))
			}
		}
	}
	for id := 1; id <= db.choices; id++ {
		name, ok := db.choiceDefault[id]
		if !ok {
			continue
		}
		if o := db.byName[name]; o == nil {
			errs = append(errs, fmt.Errorf("kconfig: choice %d: default %s is undeclared", id, name))
		} else if o.Choice != id {
			errs = append(errs, fmt.Errorf("kconfig: choice %d: default %s is not one of its members", id, name))
		}
	}
	return errs
}
