package kconfig

import (
	"fmt"
	"strings"
)

// Loader resolves `source "path"` directives during parsing.
type Loader interface {
	Load(path string) (string, error)
}

// MapLoader is a Loader backed by an in-memory map of path -> contents.
type MapLoader map[string]string

// Load implements Loader.
func (m MapLoader) Load(path string) (string, error) {
	src, ok := m[path]
	if !ok {
		return "", fmt.Errorf("kconfig: source file %q not found", path)
	}
	return src, nil
}

// Parser builds a Database from Kconfig-language text.
type Parser struct {
	db     *Database
	loader Loader
}

// NewParser returns a parser that appends declarations into db. loader may
// be nil if no `source` directives are used.
func NewParser(db *Database, loader Loader) *Parser {
	return &Parser{db: db, loader: loader}
}

// ParseString parses Kconfig text. path is used for error messages and to
// derive the source directory recorded on each option (its first path
// segment, mirroring Figure 3's by-directory census).
func (p *Parser) ParseString(path, src string) error {
	st := &parseState{
		parser: p,
		path:   path,
		dir:    topDir(path),
		lines:  strings.Split(src, "\n"),
	}
	return st.run()
}

func topDir(path string) string {
	path = strings.TrimPrefix(path, "./")
	if i := strings.IndexByte(path, '/'); i > 0 {
		return path[:i]
	}
	return "."
}

type parseState struct {
	parser *Parser
	path   string
	dir    string
	lines  []string
	pos    int

	cur     *Option // option currently being populated
	condStk []Expr  // active `if` blocks
	menuStk []string

	// choice block state: the active group id (0 = none) and whether a
	// `default` line at choice level is expected next.
	choiceID      int
	choiceDefault bool // parsing attributes of the choice itself
}

func (st *parseState) errf(format string, args ...interface{}) error {
	return fmt.Errorf("kconfig: %s:%d: %s", st.path, st.pos, fmt.Sprintf(format, args...))
}

func (st *parseState) run() error {
	for st.pos < len(st.lines) {
		raw := st.lines[st.pos]
		st.pos++
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		kw, rest := splitKeyword(line)
		var err error
		switch kw {
		case "config", "menuconfig":
			err = st.beginConfig(rest)
		case "bool", "tristate", "string", "int", "hex":
			err = st.typeLine(kw, rest)
		case "prompt":
			err = st.promptLine(rest)
		case "depends":
			err = st.dependsLine(rest)
		case "select":
			err = st.selectLine(rest)
		case "default":
			err = st.defaultLine(rest)
		case "help", "---help---":
			st.helpBlock()
		case "choice":
			st.cur = nil
			if st.choiceID != 0 {
				err = st.errf("nested choice blocks are not supported")
			} else {
				st.choiceID = st.parser.db.newChoice()
				st.choiceDefault = true
			}
		case "endchoice":
			st.cur = nil
			if st.choiceID == 0 {
				err = st.errf("endchoice without choice")
			} else {
				st.choiceID = 0
				st.choiceDefault = false
			}
		case "menu":
			st.cur = nil
			st.menuStk = append(st.menuStk, unquote(rest))
		case "endmenu":
			st.cur = nil
			if len(st.menuStk) == 0 {
				err = st.errf("endmenu without menu")
			} else {
				st.menuStk = st.menuStk[:len(st.menuStk)-1]
			}
		case "if":
			st.cur = nil
			var e Expr
			e, err = ParseExpr(rest)
			if err == nil {
				st.condStk = append(st.condStk, e)
			}
		case "endif":
			st.cur = nil
			if len(st.condStk) == 0 {
				err = st.errf("endif without if")
			} else {
				st.condStk = st.condStk[:len(st.condStk)-1]
			}
		case "source":
			st.cur = nil
			err = st.sourceLine(rest)
		case "mainmenu", "comment":
			st.cur = nil
		default:
			err = st.errf("unknown keyword %q", kw)
		}
		if err != nil {
			return err
		}
	}
	if len(st.condStk) != 0 {
		return st.errf("unterminated if block")
	}
	if len(st.menuStk) != 0 {
		return st.errf("unterminated menu block")
	}
	if st.choiceID != 0 {
		return st.errf("unterminated choice block")
	}
	return nil
}

func splitKeyword(line string) (kw, rest string) {
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		return line[:i], strings.TrimSpace(line[i+1:])
	}
	return line, ""
}

func (st *parseState) beginConfig(rest string) error {
	name := strings.TrimSpace(rest)
	if name == "" {
		return st.errf("config with no symbol name")
	}
	o := &Option{Name: name, Dir: st.dir, Choice: st.choiceID}
	st.choiceDefault = false
	// `if` blocks contribute dependencies to everything inside them.
	if len(st.condStk) > 0 {
		o.Depends = And(append([]Expr(nil), st.condStk...)...)
	}
	if err := st.parser.db.Add(o); err != nil {
		return st.errf("%v", err)
	}
	st.cur = o
	return nil
}

func (st *parseState) need() (*Option, error) {
	if st.cur == nil {
		return nil, st.errf("attribute outside config block")
	}
	return st.cur, nil
}

func (st *parseState) typeLine(kw, rest string) error {
	o, err := st.need()
	if err != nil {
		return err
	}
	switch kw {
	case "bool":
		o.Type = TypeBool
	case "tristate":
		o.Type = TypeTristate
	case "string":
		o.Type = TypeString
	case "int":
		o.Type = TypeInt
	case "hex":
		o.Type = TypeHex
	}
	if rest != "" {
		o.Prompt = unquote(rest)
	}
	return nil
}

func (st *parseState) promptLine(rest string) error {
	if st.choiceID != 0 && st.choiceDefault {
		return nil // the choice group's own prompt has no semantics here
	}
	o, err := st.need()
	if err != nil {
		return err
	}
	text, _ := splitIf(rest)
	o.Prompt = unquote(text)
	return nil
}

func (st *parseState) dependsLine(rest string) error {
	o, err := st.need()
	if err != nil {
		return err
	}
	if !strings.HasPrefix(rest, "on ") && rest != "on" {
		return st.errf("expected `depends on EXPR`")
	}
	e, err := ParseExpr(strings.TrimSpace(strings.TrimPrefix(rest, "on")))
	if err != nil {
		return st.errf("%v", err)
	}
	if o.Depends == nil {
		o.Depends = e
	} else {
		o.Depends = And(o.Depends, e)
	}
	return nil
}

func (st *parseState) selectLine(rest string) error {
	o, err := st.need()
	if err != nil {
		return err
	}
	target, condText := splitIf(rest)
	target = strings.TrimSpace(target)
	if target == "" {
		return st.errf("select with no target")
	}
	s := Select{Target: target}
	if condText != "" {
		if s.Cond, err = ParseExpr(condText); err != nil {
			return st.errf("%v", err)
		}
	}
	o.Selects = append(o.Selects, s)
	return nil
}

func (st *parseState) defaultLine(rest string) error {
	if st.choiceID != 0 && st.choiceDefault {
		member, _ := splitIf(rest)
		st.parser.db.setChoiceDefault(st.choiceID, strings.TrimSpace(member))
		return nil
	}
	o, err := st.need()
	if err != nil {
		return err
	}
	valText, condText := splitIf(rest)
	valText = strings.TrimSpace(valText)
	var d Default
	switch o.Type {
	case TypeBool, TypeTristate:
		t, err := ParseTristate(valText)
		if err != nil {
			return st.errf("%v", err)
		}
		d.Value = TriValue(t)
	default:
		d.Value = StrValue(unquote(valText))
	}
	if condText != "" {
		if d.Cond, err = ParseExpr(condText); err != nil {
			return st.errf("%v", err)
		}
	}
	o.Defaults = append(o.Defaults, d)
	return nil
}

func (st *parseState) sourceLine(rest string) error {
	path := unquote(strings.TrimSpace(rest))
	if st.parser.loader == nil {
		return st.errf("source %q: no loader configured", path)
	}
	src, err := st.parser.loader.Load(path)
	if err != nil {
		return st.errf("%v", err)
	}
	sub := &parseState{
		parser: st.parser,
		path:   path,
		dir:    topDir(path),
		lines:  strings.Split(src, "\n"),
	}
	return sub.run()
}

// helpBlock consumes the indented help text following a help keyword and
// attaches it to the current option (if any).
func (st *parseState) helpBlock() {
	var b strings.Builder
	for st.pos < len(st.lines) {
		raw := st.lines[st.pos]
		trimmed := strings.TrimSpace(raw)
		if trimmed == "" {
			st.pos++
			continue
		}
		if !strings.HasPrefix(raw, " ") && !strings.HasPrefix(raw, "\t") {
			break // dedent ends the help block
		}
		if b.Len() > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(trimmed)
		st.pos++
	}
	if st.cur != nil {
		st.cur.Help = b.String()
	}
}

// splitIf splits "X if EXPR" into (X, EXPR), respecting quotes.
func splitIf(s string) (head, cond string) {
	inQuote := false
	for i := 0; i+4 <= len(s); i++ {
		if s[i] == '"' {
			inQuote = !inQuote
		}
		if !inQuote && strings.HasPrefix(s[i:], " if ") {
			return strings.TrimSpace(s[:i]), strings.TrimSpace(s[i+4:])
		}
	}
	return s, ""
}

func unquote(s string) string {
	s = strings.TrimSpace(s)
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		return s[1 : len(s)-1]
	}
	return s
}

// --- expression parsing ---

// ParseExpr parses a kconfig dependency expression:
//
//	expr  := or
//	or    := and { '||' and }
//	and   := not { '&&' not }
//	not   := '!' not | primary
//	prim  := '(' expr ')' | operand [ ('='|'!=') operand ]
//	operand := SYMBOL | "literal"
func ParseExpr(s string) (Expr, error) {
	toks, err := lexExpr(s)
	if err != nil {
		return nil, err
	}
	ep := &exprParser{toks: toks}
	e, err := ep.parseOr()
	if err != nil {
		return nil, err
	}
	if ep.pos != len(ep.toks) {
		return nil, fmt.Errorf("kconfig: trailing tokens in expression %q", s)
	}
	return e, nil
}

type exprParser struct {
	toks []string
	pos  int
}

func (p *exprParser) peek() string {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return ""
}

func (p *exprParser) next() string {
	t := p.peek()
	p.pos++
	return t
}

func (p *exprParser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.peek() == "||" {
		p.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = Or(l, r)
	}
	return l, nil
}

func (p *exprParser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.peek() == "&&" {
		p.next()
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = And(l, r)
	}
	return l, nil
}

func (p *exprParser) parseNot() (Expr, error) {
	if p.peek() == "!" {
		p.next()
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return Not(x), nil
	}
	return p.parsePrimary()
}

func (p *exprParser) parsePrimary() (Expr, error) {
	t := p.next()
	switch t {
	case "":
		return nil, fmt.Errorf("kconfig: unexpected end of expression")
	case "(":
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.next() != ")" {
			return nil, fmt.Errorf("kconfig: missing )")
		}
		return e, nil
	case ")", "&&", "||", "=", "!=", "!":
		return nil, fmt.Errorf("kconfig: unexpected token %q", t)
	}
	switch p.peek() {
	case "=":
		p.next()
		return Eq(t, p.next()), nil
	case "!=":
		p.next()
		return Ne(t, p.next()), nil
	}
	return Symbol(t), nil
}

func lexExpr(s string) ([]string, error) {
	var toks []string
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case c == '(' || c == ')':
			toks = append(toks, string(c))
			i++
		case c == '!':
			if i+1 < len(s) && s[i+1] == '=' {
				toks = append(toks, "!=")
				i += 2
			} else {
				toks = append(toks, "!")
				i++
			}
		case c == '=':
			toks = append(toks, "=")
			i++
		case c == '&':
			if i+1 >= len(s) || s[i+1] != '&' {
				return nil, fmt.Errorf("kconfig: stray & in expression %q", s)
			}
			toks = append(toks, "&&")
			i += 2
		case c == '|':
			if i+1 >= len(s) || s[i+1] != '|' {
				return nil, fmt.Errorf("kconfig: stray | in expression %q", s)
			}
			toks = append(toks, "||")
			i += 2
		case c == '"':
			j := strings.IndexByte(s[i+1:], '"')
			if j < 0 {
				return nil, fmt.Errorf("kconfig: unterminated string in expression %q", s)
			}
			toks = append(toks, s[i:i+j+2])
			i += j + 2
		default:
			j := i
			for j < len(s) && !strings.ContainsRune(" \t()!=&|", rune(s[j])) {
				j++
			}
			if j == i {
				return nil, fmt.Errorf("kconfig: bad character %q in expression %q", c, s)
			}
			toks = append(toks, s[i:j])
			i = j
		}
	}
	return toks, nil
}
