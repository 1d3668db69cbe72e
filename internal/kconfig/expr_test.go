package kconfig

import (
	"testing"
	"testing/quick"
)

// envOf is a configuration in which names[i] is y when bit i of mask is
// set; every other symbol is n.
func envOf(mask uint8, names ...string) *Config {
	c := NewConfig()
	for i, n := range names {
		if mask&(1<<i) != 0 {
			c.Enable(n)
		}
	}
	return c
}

func TestTristateLogic(t *testing.T) {
	tests := []struct{ a, b, and Tristate }{
		{No, No, No},
		{No, Yes, No},
		{Yes, Yes, Yes},
	}
	for _, tt := range tests {
		if got := tt.a.And(tt.b); got != tt.and {
			t.Errorf("%v && %v = %v, want %v", tt.a, tt.b, got, tt.and)
		}
		if got := tt.b.And(tt.a); got != tt.and {
			t.Errorf("%v && %v = %v, want %v (commutativity)", tt.b, tt.a, got, tt.and)
		}
	}
	if No.Not() != Yes || Yes.Not() != No {
		t.Error("negation wrong")
	}
}

func TestExprEval(t *testing.T) {
	env := envOf(0b101, "A", "B", "C")
	tests := []struct {
		src  string
		want Tristate
	}{
		{"A", Yes},
		{"B", No},
		{"!A", No},
		{"!B", Yes},
		{"!!A", Yes},
		{"A && B", No},
		{"A && C", Yes},
		{"A && !B", Yes},
		{"(A)", Yes},
		{"!(A && B)", Yes},
		{"!(A && C)", No},
		{"A && (C && !B)", Yes},
		{"A && !B && C", Yes},
	}
	for _, tt := range tests {
		e, err := ParseExpr(tt.src)
		if err != nil {
			t.Fatalf("ParseExpr(%q): %v", tt.src, err)
		}
		if got := e.Eval(env); got != tt.want {
			t.Errorf("Eval(%q) = %v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestExprParseErrors(t *testing.T) {
	bad := []string{"", "A &&", "&& A", "(A", "A)", "()", "A B", "A & B", "A | B", "A || B",
		"A = y", "A != y", "!", `"s"`, `"unterminated`}
	for _, src := range bad {
		if _, err := ParseExpr(src); err == nil {
			t.Errorf("ParseExpr(%q) succeeded, want error", src)
		}
	}
}

func TestExprSymbols(t *testing.T) {
	e, err := ParseExpr("A && !(B && C)")
	if err != nil {
		t.Fatal(err)
	}
	got := e.Symbols(nil)
	want := []string{"A", "B", "C"}
	if len(got) != len(want) {
		t.Fatalf("Symbols = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Symbols = %v, want %v", got, want)
		}
	}
}

// Property: parsing the String() rendering of a parsed expression evaluates
// identically under arbitrary environments (print/parse round-trip).
func TestExprStringRoundTrip(t *testing.T) {
	srcs := []string{
		"A", "!A", "!!A", "A && B", "A && (B && C)", "!(A && B)",
		"!(A && B) && C", "!(!A && !(B && C))", "A && B && C && !B",
	}
	for _, src := range srcs {
		e1, err := ParseExpr(src)
		if err != nil {
			t.Fatalf("ParseExpr(%q): %v", src, err)
		}
		e2, err := ParseExpr(e1.String())
		if err != nil {
			t.Fatalf("re-parse of %q -> %q: %v", src, e1.String(), err)
		}
		f := func(mask uint8) bool {
			env := envOf(mask, "A", "B", "C")
			return e1.Eval(env) == e2.Eval(env)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("round-trip mismatch for %q: %v", src, err)
		}
	}
}

// Property: De Morgan's law holds for the evaluator: !(A && B) is y
// exactly when !A or !B is.
func TestDeMorganProperty(t *testing.T) {
	a, b := Symbol("A"), Symbol("B")
	f := func(mask uint8) bool {
		env := envOf(mask, "A", "B")
		return Not(And(a, b)).Eval(env).Bool() == (Not(a).Eval(env).Bool() || Not(b).Eval(env).Bool())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
