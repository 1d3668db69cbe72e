package kconfig

// Expr is a `depends on` expression: symbols joined by `&&` and `!`.
type Expr interface {
	// Eval computes the expression's value in a configuration.
	Eval(cfg *Config) Tristate
	// Symbols appends the names of all symbols referenced, in order.
	Symbols(dst []string) []string
	// String renders kconfig syntax.
	String() string
}

// symbolExpr references a configuration symbol.
type symbolExpr struct{ name string }

// Symbol returns an expression referencing the named symbol.
func Symbol(name string) Expr { return symbolExpr{name} }

func (e symbolExpr) Eval(cfg *Config) Tristate     { return cfg.Get(e.name) }
func (e symbolExpr) Symbols(dst []string) []string { return append(dst, e.name) }
func (e symbolExpr) String() string                { return e.name }

type notExpr struct{ x Expr }

// Not returns the negation of x.
func Not(x Expr) Expr { return notExpr{x} }

func (e notExpr) Eval(cfg *Config) Tristate     { return e.x.Eval(cfg).Not() }
func (e notExpr) Symbols(dst []string) []string { return e.x.Symbols(dst) }
func (e notExpr) String() string {
	if _, ok := e.x.(andExpr); ok {
		return "!(" + e.x.String() + ")"
	}
	return "!" + e.x.String()
}

type andExpr struct{ l, r Expr }

// And returns the conjunction of l and r.
func And(l, r Expr) Expr { return andExpr{l, r} }

func (e andExpr) Eval(cfg *Config) Tristate { return e.l.Eval(cfg).And(e.r.Eval(cfg)) }
func (e andExpr) Symbols(dst []string) []string {
	return e.r.Symbols(e.l.Symbols(dst))
}
func (e andExpr) String() string { return e.l.String() + " && " + e.r.String() }

// EvalOrYes evaluates e, treating a nil expression (an option without
// `depends on`) as y.
func EvalOrYes(e Expr, cfg *Config) Tristate {
	if e == nil {
		return Yes
	}
	return e.Eval(cfg)
}
