package smt

import (
	"fmt"
	"math/big"
	"strconv"
	"strings"
)

// Serialize renders t as an SMT-LIB-flavoured S-expression that Parse can
// read back. Variable names are pipe-quoted (they contain '$', '#', '.').
// The DAG is expanded to a tree; assertion terms are small, so this is
// acceptable for the spec file format.
func Serialize(t *Term) string {
	var b strings.Builder
	t.write(&b, false, 0)
	return b.String()
}

// write renders t as an S-expression with the operator table's names.
// Serialize's form is what Parse reads. String's (debug) form is for
// people: bare variable names, hexadecimal constants tagged with their
// width, and arguments nested deeper than 16 levels elided to @id.
func (t *Term) write(b *strings.Builder, debug bool, depth int) {
	switch {
	case t.op == OpVar && debug:
		b.WriteString(t.name)
	case t.op == OpVar:
		b.WriteString("|")
		b.WriteString(t.name)
		b.WriteString("|")
	case t.op == OpConst && debug:
		fmt.Fprintf(b, "#x%s[%d]", t.val.Text(16), t.sort.Width)
	case t.op == OpConst:
		fmt.Fprintf(b, "(_ bv%s %d)", t.val.Text(10), t.sort.Width)
	case len(t.args) == 0:
		b.WriteString(t.op.String())
	default:
		b.WriteString("(")
		if idx := t.Indices(); len(idx) > 0 {
			b.WriteString("(_ ")
			b.WriteString(t.op.String())
			for _, i := range idx {
				fmt.Fprintf(b, " %d", i)
			}
			b.WriteString(")")
		} else {
			b.WriteString(t.op.String())
		}
		for _, a := range t.args {
			b.WriteString(" ")
			if debug && depth > 16 {
				fmt.Fprintf(b, "@%d", a.id)
				continue
			}
			a.write(b, debug, depth+1)
		}
		b.WriteString(")")
	}
}

// VarSorts is a name→sort mapping used when parsing serialized terms.
type VarSorts map[string]Sort

// Parse reads a serialized term back. Unknown variables are an error; the
// caller provides the sort environment (the spec file carries it).
func Parse(f *Factory, src string, sorts VarSorts) (*Term, error) {
	p := &sexprParser{src: src, f: f, sorts: sorts}
	t, err := p.parse()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("smt: trailing input at %d", p.pos)
	}
	return t, nil
}

type sexprParser struct {
	src   string
	pos   int
	depth int
	f     *Factory
	sorts VarSorts
}

func (p *sexprParser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\n' || p.src[p.pos] == '\t' || p.src[p.pos] == '\r') {
		p.pos++
	}
}

func (p *sexprParser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("smt: parse at %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func (p *sexprParser) token() (string, error) {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return "", p.errf("unexpected end of input")
	}
	start := p.pos
	switch c := p.src[p.pos]; {
	case c == '(' || c == ')':
		p.pos++
		return p.src[start:p.pos], nil
	case c == '|':
		p.pos++
		for p.pos < len(p.src) && p.src[p.pos] != '|' {
			p.pos++
		}
		if p.pos >= len(p.src) {
			return "", p.errf("unterminated variable name")
		}
		p.pos++
		return p.src[start:p.pos], nil
	default:
		for p.pos < len(p.src) && !strings.ContainsRune(" \t\n\r()", rune(p.src[p.pos])) {
			p.pos++
		}
		return p.src[start:p.pos], nil
	}
}

func (p *sexprParser) peek() byte {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

// maxParseDepth bounds the nesting Parse accepts, and with it the
// recursion of everything that later walks the term.
const maxParseDepth = 1000

func (p *sexprParser) parse() (*Term, error) {
	tok, err := p.token()
	if err != nil {
		return nil, err
	}
	switch {
	case tok == "true":
		return p.f.True(), nil
	case tok == "false":
		return p.f.False(), nil
	case strings.HasPrefix(tok, "|"):
		name := tok[1 : len(tok)-1]
		sort, ok := p.sorts[name]
		if !ok {
			return nil, p.errf("unknown variable %q", name)
		}
		return p.f.Var(name, sort), nil
	case tok == "(":
		if p.depth++; p.depth > maxParseDepth {
			return nil, p.errf("nesting deeper than %d", maxParseDepth)
		}
		t, err := p.parseApp()
		p.depth--
		return t, err
	default:
		return nil, p.errf("unexpected token %q", tok)
	}
}

// parseApp parses what follows an opening parenthesis: a literal
// (_ bvN w), or an application (op arg…) or ((_ op index…) arg…) of an
// operator-table row, built through Factory.Apply.
func (p *sexprParser) parseApp() (*Term, error) {
	indexed := p.peek() == '('
	if indexed {
		p.pos++
		if err := p.expect("_"); err != nil {
			return nil, err
		}
	}
	head, err := p.token()
	if err != nil {
		return nil, err
	}
	if head == "_" && !indexed {
		return p.parseLiteral()
	}
	op, ok := opByName[head]
	if !ok {
		return nil, p.errf("unknown operator %q", head)
	}
	var idx []int
	if indexed {
		for p.peek() != ')' && p.peek() != 0 {
			i, err := p.integer()
			if err != nil {
				return nil, err
			}
			idx = append(idx, i)
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
	}
	var args []*Term
	for p.peek() != ')' && p.peek() != 0 {
		a, err := p.parse()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	t, err := p.f.Apply(op, args, idx...)
	if err != nil {
		return nil, p.errf("%s", strings.TrimPrefix(err.Error(), "smt: "))
	}
	if t.sort.Width > MaxWidth {
		return nil, p.errf("%s builds a %d-bit vector, limit %d", head, t.sort.Width, MaxWidth)
	}
	return t, nil
}

// parseLiteral parses the bvN w) of a bitvector literal (_ bvN w).
func (p *sexprParser) parseLiteral() (*Term, error) {
	lit, err := p.token()
	if err != nil {
		return nil, err
	}
	digits := strings.TrimPrefix(lit, "bv")
	v, ok := new(big.Int).SetString(digits, 10)
	if !ok || digits == lit || digits[0] < '0' || digits[0] > '9' {
		return nil, p.errf("bad bv literal %q", lit)
	}
	w, err := p.integer()
	if err != nil {
		return nil, err
	}
	if w < 1 || v.BitLen() > w {
		return nil, p.errf("literal %s does not fit width %d", lit, w)
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return p.f.BVConst(v, w), nil
}

// integer reads a literal's width or an operator's index: an integer no
// larger than MaxWidth (how small it may be is the literal's, or the
// operator's sort rule's, to say).
func (p *sexprParser) integer() (int, error) {
	tok, err := p.token()
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(tok)
	if err != nil || n > MaxWidth {
		return 0, p.errf("bad width or index %q (limit %d)", tok, MaxWidth)
	}
	return n, nil
}

func (p *sexprParser) expect(tok string) error {
	got, err := p.token()
	if err != nil {
		return err
	}
	if got != tok {
		return p.errf("expected %q, got %q", tok, got)
	}
	return nil
}
