package kconfig

import "strings"

// Expr is a kconfig dependency expression. Expressions evaluate to a
// Tristate against an Env (a view of current symbol values).
type Expr interface {
	// Eval computes the expression's tristate value.
	Eval(env Env) Tristate
	// Symbols appends the names of all symbols referenced, in order.
	Symbols(dst []string) []string
	// String renders kconfig syntax.
	String() string
}

// Env supplies symbol values during expression evaluation.
type Env interface {
	// Get returns the current value of the named symbol. Unknown or unset
	// symbols evaluate as n / empty.
	Get(name string) Value
}

// EnvFunc adapts a function to the Env interface.
type EnvFunc func(name string) Value

// Get implements Env.
func (f EnvFunc) Get(name string) Value { return f(name) }

// symbolExpr references a configuration symbol or the constants y/m/n.
type symbolExpr struct{ name string }

// Symbol returns an expression referencing the named symbol.
func Symbol(name string) Expr { return symbolExpr{name} }

func (e symbolExpr) Eval(env Env) Tristate {
	switch e.name {
	case "y":
		return Yes
	case "m":
		return Module
	case "n":
		return No
	}
	return env.Get(e.name).Tri
}

func (e symbolExpr) Symbols(dst []string) []string {
	switch e.name {
	case "y", "m", "n":
		return dst
	}
	return append(dst, e.name)
}

func (e symbolExpr) String() string { return e.name }

type notExpr struct{ x Expr }

// Not returns the negation of x.
func Not(x Expr) Expr { return notExpr{x} }

func (e notExpr) Eval(env Env) Tristate         { return e.x.Eval(env).Not() }
func (e notExpr) Symbols(dst []string) []string { return e.x.Symbols(dst) }
func (e notExpr) String() string                { return "!" + parenIfBinary(e.x) }

type andExpr struct{ l, r Expr }

// And returns the conjunction of the operands; with no operands it is y.
func And(xs ...Expr) Expr {
	return combine(xs, func(l, r Expr) Expr { return andExpr{l, r} })
}

func (e andExpr) Eval(env Env) Tristate { return e.l.Eval(env).And(e.r.Eval(env)) }
func (e andExpr) Symbols(dst []string) []string {
	return e.r.Symbols(e.l.Symbols(dst))
}
func (e andExpr) String() string {
	return parenIfOr(e.l) + " && " + parenIfOr(e.r)
}

type orExpr struct{ l, r Expr }

// Or returns the disjunction of the operands; with no operands it is n.
func Or(xs ...Expr) Expr {
	if len(xs) == 0 {
		return Symbol("n")
	}
	return combine(xs, func(l, r Expr) Expr { return orExpr{l, r} })
}

func (e orExpr) Eval(env Env) Tristate { return e.l.Eval(env).Or(e.r.Eval(env)) }
func (e orExpr) Symbols(dst []string) []string {
	return e.r.Symbols(e.l.Symbols(dst))
}
func (e orExpr) String() string { return e.l.String() + " || " + e.r.String() }

type cmpExpr struct {
	l, r string // symbol names or quoted literals
	ne   bool
}

// Eq returns the expression `l = r` comparing two symbols/literals.
func Eq(l, r string) Expr { return cmpExpr{l: l, r: r} }

// Ne returns the expression `l != r`.
func Ne(l, r string) Expr { return cmpExpr{l: l, r: r, ne: true} }

func (e cmpExpr) Eval(env Env) Tristate {
	eq := cmpOperand(e.l, env) == cmpOperand(e.r, env)
	if e.ne {
		eq = !eq
	}
	if eq {
		return Yes
	}
	return No
}

// cmpOperand resolves a comparison operand: quoted strings and the
// constants y/m/n are literal; anything else is a symbol lookup.
func cmpOperand(s string, env Env) string {
	if strings.HasPrefix(s, `"`) && strings.HasSuffix(s, `"`) && len(s) >= 2 {
		return s[1 : len(s)-1]
	}
	switch s {
	case "y", "m", "n":
		return s
	}
	return env.Get(s).String()
}

func (e cmpExpr) Symbols(dst []string) []string {
	for _, s := range []string{e.l, e.r} {
		if !strings.HasPrefix(s, `"`) && s != "y" && s != "m" && s != "n" {
			dst = append(dst, s)
		}
	}
	return dst
}

func (e cmpExpr) String() string {
	op := "="
	if e.ne {
		op = "!="
	}
	return e.l + op + e.r
}

func combine(xs []Expr, join func(l, r Expr) Expr) Expr {
	switch len(xs) {
	case 0:
		return Symbol("y")
	case 1:
		return xs[0]
	}
	out := xs[0]
	for _, x := range xs[1:] {
		out = join(out, x)
	}
	return out
}

func parenIfBinary(x Expr) string {
	switch x.(type) {
	case andExpr, orExpr, cmpExpr:
		return "(" + x.String() + ")"
	}
	return x.String()
}

func parenIfOr(x Expr) string {
	if _, ok := x.(orExpr); ok {
		return "(" + x.String() + ")"
	}
	return x.String()
}

// ConstYes is the always-true expression used for unconditional clauses.
var ConstYes = Symbol("y")

// EvalOrYes evaluates e, treating a nil expression as y. Nil expressions
// arise from omitted `depends on`/`if` clauses.
func EvalOrYes(e Expr, env Env) Tristate {
	if e == nil {
		return Yes
	}
	return e.Eval(env)
}

func exprString(e Expr) string {
	if e == nil {
		return "y"
	}
	return e.String()
}
