package kconfig

import (
	"fmt"
	"strings"
)

// Parser builds a Database from Kconfig-language text. It accepts the
// subset the package implements and rejects every other keyword.
type Parser struct {
	db *Database
}

// NewParser returns a parser that appends declarations into db.
func NewParser(db *Database) *Parser {
	return &Parser{db: db}
}

// ParseString parses Kconfig text. path is used for error messages and to
// derive the source directory recorded on each option (its first path
// segment, mirroring Figure 3's by-directory census).
func (p *Parser) ParseString(path, src string) error {
	st := &parseState{
		db:    p.db,
		path:  path,
		dir:   topDir(path),
		lines: strings.Split(src, "\n"),
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
	db    *Database
	path  string
	dir   string
	lines []string
	pos   int

	cur *Option // option currently being populated

	// choice block state: the active group id (0 = none) and whether the
	// lines being read are the choice's own attributes.
	choiceID     int
	choiceHeader bool
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
		case "config":
			err = st.beginConfig(rest)
		case "bool":
			err = st.boolLine(rest)
		case "prompt":
			err = st.promptLine(rest)
		case "depends":
			err = st.dependsLine(rest)
		case "default":
			err = st.defaultLine(rest)
		case "help":
			if rest != "" {
				err = st.errf("unexpected %q after help", rest)
			}
			st.helpBlock()
		case "choice":
			st.cur = nil
			if st.choiceID != 0 {
				err = st.errf("nested choice blocks are not supported")
			} else {
				st.choiceID = st.db.newChoice()
				st.choiceHeader = true
			}
		case "endchoice":
			st.cur = nil
			if st.choiceID == 0 {
				err = st.errf("endchoice without choice")
			} else {
				st.choiceID = 0
				st.choiceHeader = false
			}
		default:
			err = st.errf("unknown keyword %q", kw)
		}
		if err != nil {
			return err
		}
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
	if !isSymbol(rest) {
		return st.errf("config needs one symbol name, got %q", rest)
	}
	o := &Option{Name: rest, Dir: st.dir, Choice: st.choiceID}
	st.choiceHeader = false
	if err := st.db.Add(o); err != nil {
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

// boolLine reads `bool ["prompt"]`.
func (st *parseState) boolLine(rest string) error {
	o, err := st.need()
	if err != nil {
		return err
	}
	if rest != "" {
		o.Prompt, err = st.quoted(rest)
	}
	return err
}

// promptLine reads `prompt "text"`, for an option or a choice group.
func (st *parseState) promptLine(rest string) error {
	text, err := st.quoted(rest)
	if err != nil || st.choiceHeader {
		return err // the choice group's own prompt has no semantics here
	}
	o, err := st.need()
	if err != nil {
		return err
	}
	o.Prompt = text
	return nil
}

// quoted returns the text of s, which must be exactly one quoted string:
// a prompt with a condition after it is not part of the language.
func (st *parseState) quoted(s string) (string, error) {
	if len(s) < 2 || s[0] != '"' || s[len(s)-1] != '"' || strings.Contains(s[1:len(s)-1], `"`) {
		return "", st.errf("expected one quoted string, got %s", s)
	}
	return s[1 : len(s)-1], nil
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

// defaultLine reads a choice group's `default MEMBER` or an option's
// `default y`; neither takes a condition.
func (st *parseState) defaultLine(rest string) error {
	if st.choiceHeader {
		if !isSymbol(rest) {
			return st.errf("expected `default MEMBER`, got %q", rest)
		}
		st.db.setChoiceDefault(st.choiceID, rest)
		return nil
	}
	o, err := st.need()
	if err != nil {
		return err
	}
	if rest != "y" {
		return st.errf("expected `default y`, got %q", rest)
	}
	o.Default = true
	return nil
}

// helpBlock consumes the help text following a help keyword and attaches
// it to the current option (if any). As in Kconfig, the text ends at the
// first non-blank line indented less than its own first line; that line
// is an attribute or the next declaration. Each text line is kept trimmed
// and blank lines are dropped.
func (st *parseState) helpBlock() {
	var text []string
	level := 1 // an unindented line ends even an empty help block
	for ; st.pos < len(st.lines); st.pos++ {
		raw := st.lines[st.pos]
		line := strings.TrimSpace(raw)
		if line == "" {
			continue
		}
		w := indent(raw)
		if w < level {
			break
		}
		if len(text) == 0 {
			level = w
		}
		text = append(text, line)
	}
	if st.cur != nil {
		st.cur.Help = strings.Join(text, "\n")
	}
}

// indent is the width of line's leading white space, a tab advancing to
// the next multiple of 8 as in Kconfig.
func indent(line string) int {
	w := 0
	for _, c := range line {
		switch c {
		case ' ':
			w++
		case '\t':
			w = w&^7 + 8
		default:
			return w
		}
	}
	return w
}

// --- expression parsing ---

// ParseExpr parses a `depends on` expression:
//
//	expr := not { '&&' not }
//	not  := '!' not | '(' expr ')' | SYMBOL
//
// A symbol is a run of letters, digits and underscores.
func ParseExpr(s string) (Expr, error) {
	toks, err := lexExpr(s)
	if err != nil {
		return nil, err
	}
	ep := &exprParser{toks: toks}
	e, err := ep.parseAnd()
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

func (p *exprParser) next() string {
	if p.pos >= len(p.toks) {
		return ""
	}
	p.pos++
	return p.toks[p.pos-1]
}

func (p *exprParser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.pos < len(p.toks) && p.toks[p.pos] == "&&" {
		p.pos++
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = And(l, r)
	}
	return l, nil
}

func (p *exprParser) parseNot() (Expr, error) {
	switch t := p.next(); t {
	case "":
		return nil, fmt.Errorf("kconfig: unexpected end of expression")
	case "!":
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return Not(x), nil
	case "(":
		e, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		if p.next() != ")" {
			return nil, fmt.Errorf("kconfig: missing )")
		}
		return e, nil
	case ")", "&&":
		return nil, fmt.Errorf("kconfig: unexpected token %q", t)
	default:
		return Symbol(t), nil
	}
}

func lexExpr(s string) ([]string, error) {
	var toks []string
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case c == '(' || c == ')' || c == '!':
			toks = append(toks, s[i:i+1])
			i++
		case strings.HasPrefix(s[i:], "&&"):
			toks = append(toks, "&&")
			i += 2
		case isSymbolByte(c):
			j := i
			for j < len(s) && isSymbolByte(s[j]) {
				j++
			}
			toks = append(toks, s[i:j])
			i = j
		default:
			return nil, fmt.Errorf("kconfig: bad character %q in expression %q", c, s)
		}
	}
	return toks, nil
}

func isSymbolByte(c byte) bool {
	return c == '_' || '0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
}

// isSymbol reports whether s is one symbol name.
func isSymbol(s string) bool {
	for i := 0; i < len(s); i++ {
		if !isSymbolByte(s[i]) {
			return false
		}
	}
	return s != ""
}
