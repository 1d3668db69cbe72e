package kconfig

import (
	"fmt"
	"sort"
)

// Request is the user's intended configuration: the symbols explicitly set
// (everything else defaults or stays n).
type Request struct {
	values map[string]Tristate
}

// NewRequest returns an empty request.
func NewRequest() *Request { return &Request{values: make(map[string]Tristate)} }

// Enable marks a symbol for y in the request.
func (r *Request) Enable(names ...string) *Request {
	for _, n := range names {
		r.values[n] = Yes
	}
	return r
}

// Set records an explicit value for a symbol. An explicit n keeps a
// `default y` off.
func (r *Request) Set(name string, v Tristate) *Request {
	r.values[name] = v
	return r
}

// Names returns the requested symbols, sorted.
func (r *Request) Names() []string {
	out := make([]string, 0, len(r.values))
	for n := range r.values {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// RequestFromConfig converts a resolved configuration back into a request,
// used when deriving one profile from another (e.g. lupine-base from
// microVM minus removed options).
func RequestFromConfig(c *Config) *Request {
	return NewRequest().Enable(c.Names()...)
}

// Warning describes a non-fatal inconsistency found during resolution: a
// request for a choice member another requested member beat.
type Warning struct {
	Symbol string
	Reason string
}

func (w Warning) String() string { return fmt.Sprintf("%s: %s", w.Symbol, w.Reason) }

// Result is the outcome of resolving a request against a database.
type Result struct {
	Config   *Config
	Warnings []Warning
}

// maxResolveRounds bounds fixpoint iteration. Dependency chains in the
// synthetic tree are shallow; options whose dependencies contradict the
// request can oscillate forever.
const maxResolveRounds = 64

// Resolve computes a consistent configuration from the request: a
// requested value applies while the option is visible, an option the
// request leaves unset takes its `default y` while its dependencies hold,
// and each choice group enables exactly one member. Unknown symbols in
// the request are an error.
func Resolve(db *Database, req *Request) (*Result, error) {
	s, err := gather(db, req)
	if err != nil {
		return nil, err
	}

	cfg := NewConfig()
	for round := 0; ; round++ {
		if round >= maxResolveRounds {
			return nil, fmt.Errorf("kconfig: resolution did not converge after %d rounds", maxResolveRounds)
		}
		next := resolveRound(db, s, req, cfg)
		if next.Equal(cfg) {
			break
		}
		cfg = next
	}

	res := &Result{Config: cfg}
	// Conflicting requests within a choice group: the first member wins,
	// the rest are reported.
	for _, members := range s.choices {
		var asked []string
		for _, m := range members {
			if uv, ok := req.values[m.Name]; ok && uv.Bool() {
				asked = append(asked, m.Name)
			}
		}
		for _, loser := range asked[min(1, len(asked)):] {
			res.Warnings = append(res.Warnings, Warning{
				Symbol: loser,
				Reason: fmt.Sprintf("choice conflict: %s selected instead", asked[0]),
			})
		}
	}
	sort.SliceStable(res.Warnings, func(i, j int) bool { return res.Warnings[i].Symbol < res.Warnings[j].Symbol })
	return res, nil
}

// scope is what the rounds of one Resolve call can touch. Every other
// option is not requested, has no default and is in no choice group, so
// every round leaves it n.
type scope struct {
	live    []*Option   // the options a round can set
	choices [][]*Option // choices[id]: group id's members in declaration order
}

// gather builds the scope of a request in one walk over the declarations;
// a request naming an undeclared symbol is an error.
func gather(db *Database, req *Request) (*scope, error) {
	// The walk adds options with defaults and choice members to live; the
	// request adds the rest.
	walked := func(o *Option) bool { return o.Default || o.Choice != 0 }
	s := &scope{choices: make([][]*Option, db.choices+1)}
	for n := range req.values {
		o := db.Lookup(n)
		if o == nil {
			return nil, fmt.Errorf("kconfig: request sets undeclared symbol %s", n)
		}
		if !walked(o) {
			s.live = append(s.live, o)
		}
	}
	for _, o := range db.ordered {
		if walked(o) {
			s.live = append(s.live, o)
		}
		if id := o.Choice; id > 0 && id <= db.choices {
			s.choices[id] = append(s.choices[id], o)
		}
	}
	return s, nil
}

// resolveRound computes one fixpoint iteration over the options the scope
// says a round can set.
func resolveRound(db *Database, s *scope, req *Request, prev *Config) *Config {
	next := &Config{values: make(map[string]struct{}, len(prev.values))}
	for _, o := range s.live {
		next.Set(o.Name, roundValue(o, req, prev))
	}
	enforceChoices(db, s.choices, req, prev, next)
	return next
}

// roundValue is an option's value after one round: the requested value if
// the option is visible, else its default. An explicit n in the request
// thus suppresses a default y (how .config overrides defconfig values).
func roundValue(o *Option, req *Request, prev *Config) Tristate {
	if v, ok := req.values[o.Name]; ok && o.Visible(prev) {
		return v
	}
	if o.Default && EvalOrYes(o.Depends, prev).Bool() {
		return Yes
	}
	return No
}

// enforceChoices applies mutual exclusion within each choice group:
// exactly one member is enabled — the first explicitly requested one, or
// the group's declared default, or the group's first member.
func enforceChoices(db *Database, choices [][]*Option, req *Request, prev, next *Config) {
	for id, members := range choices {
		if len(members) == 0 {
			continue
		}
		var winner *Option
		for _, m := range members {
			if uv, ok := req.values[m.Name]; ok && uv.Bool() && m.Visible(prev) {
				winner = m
				break
			}
		}
		if winner == nil {
			name := db.choiceDefault[id]
			for _, m := range members {
				if m.Name == name {
					winner = m
				}
			}
			if winner == nil {
				winner = members[0]
			}
		}
		for _, m := range members {
			if m == winner && EvalOrYes(m.Depends, prev).Bool() {
				next.Enable(m.Name)
			} else {
				next.Disable(m.Name)
			}
		}
	}
}

// DependencyClosure returns the requested names plus every symbol that
// appears (positively) in the dependency chain of a requested option. The
// synthetic kernel tree uses simple conjunctive dependencies, so enabling
// all positively referenced symbols yields a satisfying assignment. This
// is the helper the Lupine specializer uses to auto-enable prerequisites.
func DependencyClosure(db *Database, names []string) ([]string, error) {
	seen := make(map[string]bool)
	var order []string
	var visit func(string) error
	visit = func(n string) error {
		if seen[n] {
			return nil
		}
		o := db.Lookup(n)
		if o == nil {
			return fmt.Errorf("kconfig: dependency closure references undeclared symbol %s", n)
		}
		seen[n] = true
		if o.Depends != nil {
			for _, s := range positiveSymbols(o.Depends) {
				if err := visit(s); err != nil {
					return err
				}
			}
		}
		order = append(order, n)
		return nil
	}
	for _, n := range names {
		if err := visit(n); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// positiveSymbols extracts symbols that appear outside any negation, i.e.
// ones that enabling can help satisfy the expression.
func positiveSymbols(e Expr) []string {
	var out []string
	var walk func(Expr, bool)
	walk = func(e Expr, neg bool) {
		switch v := e.(type) {
		case symbolExpr:
			if !neg {
				out = append(out, v.name)
			}
		case notExpr:
			walk(v.x, !neg)
		case andExpr:
			walk(v.l, neg)
			walk(v.r, neg)
		}
	}
	walk(e, false)
	return out
}
