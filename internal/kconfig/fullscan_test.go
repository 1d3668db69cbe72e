package kconfig

import (
	"fmt"
	"slices"
	"sort"
	"testing"
)

// resolveEveryOption is Resolve with every round visiting every
// declaration and every choice group rescanning the tree, as the resolver
// did before its rounds learned to skip the options they cannot set.
// FuzzResolveMatchesFullScan holds Resolve to it.
func resolveEveryOption(db *Database, req *Request) (*Result, error) {
	for n := range req.values {
		if db.Lookup(n) == nil {
			return nil, fmt.Errorf("kconfig: request sets undeclared symbol %s", n)
		}
	}

	cfg := NewConfig()
	for round := 0; ; round++ {
		if round >= maxResolveRounds {
			return nil, fmt.Errorf("kconfig: resolution did not converge after %d rounds", maxResolveRounds)
		}
		next := scanRound(db, req, cfg)
		if next.Equal(cfg) {
			break
		}
		cfg = next
	}

	res := &Result{Config: cfg}
	// Conflicting requests within a choice group: the first member wins,
	// the rest are reported.
	for id := 1; id <= db.choices; id++ {
		var asked []string
		for _, m := range scanChoiceMembers(db, id) {
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
	sort.Slice(res.Warnings, func(i, j int) bool { return res.Warnings[i].Symbol < res.Warnings[j].Symbol })
	return res, nil
}

// scanRound computes one fixpoint iteration over the declarations.
func scanRound(db *Database, req *Request, prev *Config) *Config {
	next := NewConfig()
	for _, o := range db.Options() {
		v := No
		userSet := false
		if uv, ok := req.values[o.Name]; ok && o.Visible(prev) {
			v = uv
			userSet = true
		}
		// Defaults fill only values the user left unspecified: an explicit
		// n in the request suppresses a default y (how .config overrides
		// defconfig values).
		if !userSet && o.Default && EvalOrYes(o.Depends, prev).Bool() {
			v = Yes
		}
		next.Set(o.Name, v)
	}
	scanEnforceChoices(db, req, prev, next)
	return next
}

// scanEnforceChoices applies mutual exclusion within each choice group:
// exactly one member is enabled — the first explicitly requested one, or
// the group's declared default, or the group's first member.
func scanEnforceChoices(db *Database, req *Request, prev, next *Config) {
	for id := 1; id <= db.choices; id++ {
		members := scanChoiceMembers(db, id)
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
				next.Set(m.Name, Yes)
			} else {
				next.Disable(m.Name)
			}
		}
	}
}

// scanChoiceMembers returns the group's members in declaration order.
func scanChoiceMembers(db *Database, id int) []*Option {
	var out []*Option
	for _, o := range db.ordered {
		if o.Choice == id {
			out = append(out, o)
		}
	}
	return out
}

// fuzzCase decodes a database and a request from fuzz input. The first
// byte is a header; every 2 bytes after it declare one option S<i>, at
// most 16 of them:
//
//	header   bits 0-2: group 1's declared default S<k-1> (k = 0: none)
//	         bits 3-5: group 2's declared default, the same way
//	         bit 6:    the request also sets an undeclared symbol
//	         bit 7:    declare a second choice group
//	kind     bit 0:    default y
//	         bit 1:    negate the dependency (a missing one stays missing)
//	         bit 2:    no prompt (invisible)
//	         bits 3-4: choice group (0 and 3: none)
//	         bits 5-6: request none, y, n, none
//	depends  bits 0-1: none, A, !A, A && B; bits 2-7: A, and B = A+1
//
// Indices wrap modulo the number of declared options. Inert options — no
// default, in no group, never requested — come before and after the
// declared ones; a quarter of them depend on a declared option.
func fuzzCase(data []byte) (*Database, *Request) {
	db := NewDatabase()
	req := NewRequest()
	if len(data) == 0 {
		return db, req
	}
	header, recs := data[0], data[1:]
	n := min(len(recs)/2, 16)
	sym := func(b byte) Expr { return Symbol(fmt.Sprintf("S%d", int(b)%max(n, 1))) }
	inert := func(from, to int) {
		for i := from; i < to; i++ {
			o := &Option{Name: fmt.Sprintf("INERT%04d", i), Prompt: "inert"}
			if i%4 == 0 && n > 0 {
				o.Depends = sym(byte(i))
			}
			db.MustAdd(o)
		}
	}

	groups := 1 + int(header>>7)
	for id := 1; id <= groups; id++ {
		db.newChoice()
		if k := int(header>>(3*(id-1))) & 7; k > 0 && n > 0 {
			db.setChoiceDefault(id, fmt.Sprintf("S%d", (k-1)%n))
		}
	}
	inert(0, 1500)
	for i := 0; i < n; i++ {
		kind, dep := recs[2*i], recs[2*i+1]
		o := &Option{Name: fmt.Sprintf("S%d", i), Default: kind&1 != 0}
		if kind&4 == 0 {
			o.Prompt = o.Name
		}
		if g := int(kind>>3) & 3; g <= groups {
			o.Choice = g
		}
		switch dep & 3 {
		case 1:
			o.Depends = sym(dep >> 2)
		case 2:
			o.Depends = Not(sym(dep >> 2))
		case 3:
			o.Depends = And(sym(dep>>2), sym(dep>>2+1))
		}
		if kind&2 != 0 && o.Depends != nil {
			o.Depends = Not(o.Depends)
		}
		db.MustAdd(o)
		switch kind >> 5 & 3 {
		case 1:
			req.Enable(o.Name)
		case 2:
			req.Set(o.Name, No)
		}
	}
	inert(1500, 3000)
	if header&0x40 != 0 {
		req.Enable("UNDECLARED")
	}
	return db, req
}

// FuzzResolveMatchesFullScan holds Resolve to resolveEveryOption: the
// same configuration, the same warnings in the same order and the same
// error for every database and request fuzzCase decodes.
func FuzzResolveMatchesFullScan(f *testing.F) {
	// S0 (requested) depends on S1, which defaults to y once S2, also
	// requested, is on: three rounds to the fixpoint.
	f.Add([]byte{0x00, 0x20, 0x05, 0x01, 0x09, 0x20, 0x00})
	// S0 and S1 are both requested from the group whose default is S1;
	// S2 is not requested and defaults to y.
	f.Add([]byte{0x02, 0x28, 0x00, 0x28, 0x00, 0x01, 0x00})
	// S0 and S1 are both requested, each depending on the other's
	// negation, so every round flips both and resolution never converges.
	f.Add([]byte{0x00, 0x20, 0x06, 0x20, 0x02})
	// Two groups, an undeclared symbol in the request.
	f.Add([]byte{0xc9, 0x2a, 0x07, 0x1d, 0x4b, 0x02, 0x2e, 0x89, 0x11})
	// Two groups, invisible and negated options, requested and defaulted.
	f.Add([]byte("\x8a two groups, requested and defaulted: every byte decodes"))
	f.Fuzz(func(t *testing.T, data []byte) {
		db, req := fuzzCase(data)
		got, gotErr := Resolve(db, req)
		want, wantErr := resolveEveryOption(db, req)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("error %v, full scan %v", gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		if !got.Config.Equal(want.Config) {
			t.Fatalf("config\n%s\nfull scan\n%s", got.Config, want.Config)
		}
		if !slices.Equal(got.Warnings, want.Warnings) {
			t.Fatalf("warnings %v, full scan %v", got.Warnings, want.Warnings)
		}
	})
}
