// Package parser implements a recursive-descent parser for bf4's P4-16
// subset (see package ast for the grammar's shape). It is error-tolerant
// in the small — errors are accumulated and parsing continues at the next
// synchronization point — so a single diagnostic run reports multiple
// problems, matching p4c's behaviour.
package parser

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"strings"

	"bf4/internal/p4/ast"
	"bf4/internal/p4/lexer"
	"bf4/internal/p4/token"
)

// Parse parses a complete P4 program.
func Parse(src string) (*ast.Program, error) {
	p := newParser(lexer.New(src))
	prog := p.parseProgram()
	if errs := p.allErrors(); len(errs) > 0 {
		msgs := make([]string, len(errs))
		for i, e := range errs {
			msgs[i] = e.Error()
		}
		return prog, errors.New(strings.Join(msgs, "\n"))
	}
	return prog, nil
}

// ParseFile is Parse with a filename attached to every diagnostic:
// errors print file:line:col: message instead of line:col: message.
func ParseFile(filename, src string) (*ast.Program, error) {
	prog, err := Parse(src)
	if err != nil {
		return prog, PrefixFile(filename, err)
	}
	return prog, nil
}

// PrefixFile prepends filename: to every line of a frontend diagnostic
// (parser and typechecker errors are one line:col-prefixed message per
// line). A nil error or empty filename passes through unchanged.
func PrefixFile(filename string, err error) error {
	if err == nil || filename == "" {
		return err
	}
	lines := strings.Split(err.Error(), "\n")
	for i, l := range lines {
		lines[i] = filename + ":" + l
	}
	return errors.New(strings.Join(lines, "\n"))
}

// ParseExpr parses a single expression (used by the spec parser and tests).
func ParseExpr(src string) (ast.Expr, error) {
	return newParser(lexer.New(src)).parseOnly()
}

// ParsePredicate parses a property predicate: a P4 expression in which
// `a -> b` (implication) is also admitted, as a right-associative
// BinaryExpr{Op: ARROW} binding looser than every other operator, at any
// parenthesis level. src starts at position at of its file. Comments are
// refused rather than skipped, so text after a predicate cannot hide in
// one. P4 programs never admit `->`.
func ParsePredicate(src string, at token.Pos) (ast.Expr, error) {
	line, col := at.Line, at.Col
	for i := 0; i < len(src); i++ {
		if src[i] == '#' || src[i] == '/' && i+1 < len(src) && (src[i+1] == '/' || src[i+1] == '*') {
			return nil, fmt.Errorf("%s: comment inside a property predicate", token.Pos{Line: line, Col: col})
		}
		if col++; src[i] == '\n' {
			line, col = line+1, 1
		}
	}
	p := newParser(lexer.NewAt(src, at))
	p.arrows = true
	return p.parseOnly()
}

// parseOnly parses one expression that must span the whole input and
// returns the first error.
func (p *parser) parseOnly() (ast.Expr, error) {
	e := p.parseExpr()
	if errs := p.allErrors(); len(errs) > 0 {
		return nil, errs[0]
	}
	if p.tok.Kind != token.EOF {
		return nil, fmt.Errorf("%s: trailing input after expression", p.tok.Pos)
	}
	return e, nil
}

// maxDepth bounds how deep the parser nests: statements inside
// statements, expressions inside expressions, and each link of a
// left-associative operator, member, index or call chain, all counted
// together. Every later pass (types, IR lowering, the property pass)
// recurses over the tree, so a bound here keeps hostile input from
// ending in an unrecoverable stack overflow. The deepest program in the
// corpus and the generators (switch@64 included) reaches 11, a property
// predicate 8 (EXPERIMENTS.md E37).
const maxDepth = 1000

type parser struct {
	lex  *lexer.Lexer
	tok  token.Token
	next token.Token
	errs []error

	arrows  bool // ParsePredicate: admit `->`
	depth   int  // current nesting, bounded by maxDepth
	tooDeep bool // maxDepth was exceeded; input skipped to EOF
}

func newParser(lex *lexer.Lexer) *parser {
	p := &parser{lex: lex}
	p.tok = p.lex.Next()
	p.next = p.lex.Next()
	return p
}

// enter opens one level of nesting, closed by leave (or by lowering
// p.depth once for a whole chain). Past maxDepth it reports one error and
// skips the rest of the input, so every open production sees EOF and
// returns.
func (p *parser) enter() {
	p.depth++
	if p.depth > maxDepth && !p.tooDeep {
		p.errorf(p.tok.Pos, "nesting deeper than %d", maxDepth)
		p.tooDeep = true
		p.skipTo()
	}
}

func (p *parser) leave() { p.depth-- }

func (p *parser) advance() {
	p.tok = p.next
	p.next = p.lex.Next()
}

func (p *parser) errorf(pos token.Pos, format string, args ...interface{}) {
	if len(p.errs) < 50 && !p.tooDeep {
		p.errs = append(p.errs, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
	}
}

// allErrors merges the lexer's diagnostics (unterminated comments and
// strings, illegal characters — previously dropped entirely) with the
// parser's own. Lexical errors come first: they are usually the root
// cause of the parse errors that follow.
func (p *parser) allErrors() []error {
	lexErrs := p.lex.Errors()
	if len(lexErrs) == 0 {
		return p.errs
	}
	out := make([]error, 0, len(lexErrs)+len(p.errs))
	out = append(out, lexErrs...)
	return append(out, p.errs...)
}

func (p *parser) expect(k token.Kind) token.Token {
	t := p.tok
	if t.Kind != k {
		// `>>` closes two nested angle brackets (register<bit<32>>): split
		// it into two RANGLE tokens.
		if k == token.RANGLE && t.Kind == token.SHR {
			p.tok = token.Token{Kind: token.RANGLE, Pos: t.Pos}
			return token.Token{Kind: token.RANGLE, Pos: t.Pos}
		}
		p.errorf(t.Pos, "expected %v, found %v", k, t)
		return t
	}
	p.advance()
	return t
}

func (p *parser) accept(k token.Kind) bool {
	if p.tok.Kind == k {
		p.advance()
		return true
	}
	return false
}

// progress returns a checkpoint of the current token; stalled reports
// whether the parser failed to move past it (error-recovery loops use the
// pair to guarantee forward progress on malformed input).
func (p *parser) progress() token.Token { return p.tok }

func (p *parser) stalled(mark token.Token) bool {
	return p.tok.Kind == mark.Kind && p.tok.Pos == mark.Pos && p.tok.Kind != token.EOF
}

// skipTo advances past tokens until one of the kinds (or EOF) is current.
func (p *parser) skipTo(kinds ...token.Kind) {
	for p.tok.Kind != token.EOF {
		for _, k := range kinds {
			if p.tok.Kind == k {
				return
			}
		}
		p.advance()
	}
}

// skipAnnotation consumes @name or @name(...) annotations.
func (p *parser) skipAnnotation() { p.parseAnnotation() }

// parseAnnotation consumes @name or @name(...) and returns the
// annotation's name ("" when malformed). Arguments are discarded — the
// subset only cares which annotations are present (e.g. @sensitive).
func (p *parser) parseAnnotation() string {
	p.expect(token.AT)
	name := ""
	if p.tok.Kind == token.IDENT {
		name = p.tok.Lit
		p.advance()
	}
	if p.tok.Kind == token.LPAREN {
		depth := 0
		for p.tok.Kind != token.EOF {
			switch p.tok.Kind {
			case token.LPAREN:
				depth++
			case token.RPAREN:
				depth--
				if depth == 0 {
					p.advance()
					return name
				}
			}
			p.advance()
		}
	}
	return name
}

func (p *parser) parseProgram() *ast.Program {
	prog := &ast.Program{}
	for p.tok.Kind != token.EOF {
		d := p.parseTopDecl()
		if d != nil {
			prog.Decls = append(prog.Decls, d)
		}
	}
	return prog
}

func (p *parser) parseTopDecl() ast.Decl {
	for p.tok.Kind == token.AT {
		p.skipAnnotation()
	}
	switch p.tok.Kind {
	case token.KwHeader:
		return p.parseHeader()
	case token.KwStruct:
		return p.parseStruct()
	case token.KwTypedef:
		return p.parseTypedef()
	case token.KwConst:
		return p.parseConst()
	case token.KwParser:
		return p.parseParser()
	case token.KwControl:
		return p.parseControl()
	case token.KwError, token.KwEnum, token.KwPackage:
		// Declarations tolerated and skipped: error lists, enums and
		// package prototypes don't affect verification in the subset.
		p.skipBraceBlockOrSemi()
		return nil
	case token.IDENT:
		return p.parseInstantiation()
	case token.EOF:
		return nil
	default:
		p.errorf(p.tok.Pos, "unexpected token %v at top level", p.tok)
		p.advance()
		return nil
	}
}

// skipBraceBlockOrSemi consumes either `... { ... }` or `... ;`.
func (p *parser) skipBraceBlockOrSemi() {
	for p.tok.Kind != token.EOF {
		switch p.tok.Kind {
		case token.LBRACE:
			depth := 0
			for p.tok.Kind != token.EOF {
				switch p.tok.Kind {
				case token.LBRACE:
					depth++
				case token.RBRACE:
					depth--
					if depth == 0 {
						p.advance()
						return
					}
				}
				p.advance()
			}
			return
		case token.SEMICOLON:
			p.advance()
			return
		}
		p.advance()
	}
}

func (p *parser) parseType() ast.Type {
	pos := p.tok.Pos
	switch p.tok.Kind {
	case token.KwBit:
		p.advance()
		p.expect(token.LANGLE)
		t := p.expect(token.INT)
		_, v, err := ParseIntLit(t.Lit)
		w := 0
		if err == nil {
			w, err = checkWidth(v)
		}
		if err != nil {
			p.errorf(t.Pos, "%v", err)
		}
		p.expect(token.RANGLE)
		return &ast.BitType{P: pos, Width: w}
	case token.KwBool:
		p.advance()
		return &ast.BoolType{P: pos}
	case token.IDENT:
		name := p.tok.Lit
		p.advance()
		return &ast.NamedType{P: pos, Name: name}
	default:
		p.errorf(pos, "expected type, found %v", p.tok)
		p.advance()
		return &ast.BitType{P: pos, Width: 1}
	}
}

// parseIntValue parses a plain integer token into an int (a table,
// register or header-stack size).
func (p *parser) parseIntValue() int {
	t := p.expect(token.INT)
	_, v, err := ParseIntLit(t.Lit)
	if err == nil && v.Cmp(big.NewInt(math.MaxInt32)) > 0 {
		err = fmt.Errorf("size %s out of range", t.Lit)
	}
	if err != nil {
		p.errorf(t.Pos, "%v", err)
		return 0
	}
	return int(v.Int64())
}

// maxWidth is the widest bit<N> and the widest width prefix of a literal.
const maxWidth = 4096

// checkWidth admits the width of a bit<N> type or of a literal's width
// prefix: 1..maxWidth.
func checkWidth(w *big.Int) (int, error) {
	if w.Sign() <= 0 || w.Cmp(big.NewInt(maxWidth)) > 0 {
		return 0, fmt.Errorf("width %s out of range 1..%d", w, maxWidth)
	}
	return int(w.Int64()), nil
}

// ParseIntLit decodes a P4 integer literal: returns the declared width
// (0 if unsized, else 1..4096) and the magnitude. Accepted forms: 42,
// 0x2A, 0b101010, 8w255, 9w0x1FF, 4s7, with optional underscores.
func ParseIntLit(lit string) (width int, val *big.Int, err error) {
	s := strings.ReplaceAll(lit, "_", "")
	if i := strings.IndexAny(s, "ws"); i > 0 && !strings.HasPrefix(s, "0x") && !strings.HasPrefix(s, "0X") && !strings.HasPrefix(s, "0b") && !strings.HasPrefix(s, "0B") {
		w, ok := new(big.Int).SetString(s[:i], 10)
		if !ok {
			return 0, nil, fmt.Errorf("bad width in literal %q", lit)
		}
		if width, err = checkWidth(w); err != nil {
			return 0, nil, fmt.Errorf("literal %q: %v", lit, err)
		}
		s = s[i+1:]
	}
	val = new(big.Int)
	base := 10
	switch {
	case strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X"):
		base, s = 16, s[2:]
	case strings.HasPrefix(s, "0b") || strings.HasPrefix(s, "0B"):
		base, s = 2, s[2:]
	}
	if _, ok := val.SetString(s, base); !ok {
		return 0, nil, fmt.Errorf("bad integer literal %q", lit)
	}
	return width, val, nil
}

func (p *parser) parseHeader() ast.Decl {
	pos := p.tok.Pos
	p.expect(token.KwHeader)
	name := p.expect(token.IDENT).Lit
	p.expect(token.LBRACE)
	d := &ast.HeaderDecl{P: pos, Name: name}
	d.Fields = p.parseFields()
	p.expect(token.RBRACE)
	return d
}

func (p *parser) parseStruct() ast.Decl {
	pos := p.tok.Pos
	p.expect(token.KwStruct)
	name := p.expect(token.IDENT).Lit
	p.expect(token.LBRACE)
	d := &ast.StructDecl{P: pos, Name: name}
	d.Fields = p.parseFields()
	p.expect(token.RBRACE)
	return d
}

func (p *parser) parseFields() []*ast.Field {
	var fields []*ast.Field
	for p.tok.Kind != token.RBRACE && p.tok.Kind != token.EOF {
		mark := p.progress()
		var annots []string
		for p.tok.Kind == token.AT {
			if a := p.parseAnnotation(); a != "" {
				annots = append(annots, a)
			}
		}
		pos := p.tok.Pos
		typ := p.parseType()
		// Header stack field: elem[size] name.
		if p.accept(token.LBRACKET) {
			size := p.parseIntValue()
			p.expect(token.RBRACKET)
			typ = &ast.StackType{P: pos, Elem: typ, Size: size}
		}
		name := p.expect(token.IDENT).Lit
		p.expect(token.SEMICOLON)
		fields = append(fields, &ast.Field{P: pos, Name: name, Type: typ, Annots: annots})
		if p.stalled(mark) {
			p.advance()
		}
	}
	return fields
}

func (p *parser) parseTypedef() ast.Decl {
	pos := p.tok.Pos
	p.expect(token.KwTypedef)
	typ := p.parseType()
	name := p.expect(token.IDENT).Lit
	p.expect(token.SEMICOLON)
	return &ast.TypedefDecl{P: pos, Name: name, Type: typ}
}

func (p *parser) parseConst() ast.Decl {
	pos := p.tok.Pos
	p.expect(token.KwConst)
	typ := p.parseType()
	name := p.expect(token.IDENT).Lit
	p.expect(token.ASSIGN)
	val := p.parseExpr()
	p.expect(token.SEMICOLON)
	return &ast.ConstDecl{P: pos, Name: name, Type: typ, Value: val}
}

func (p *parser) parseParams() []*ast.Param {
	p.expect(token.LPAREN)
	var params []*ast.Param
	for p.tok.Kind != token.RPAREN && p.tok.Kind != token.EOF {
		pos := p.tok.Pos
		dir := ""
		switch p.tok.Kind {
		case token.KwIn:
			dir = "in"
			p.advance()
		case token.KwOut:
			dir = "out"
			p.advance()
		case token.KwInout:
			dir = "inout"
			p.advance()
		}
		typ := p.parseType()
		name := p.expect(token.IDENT).Lit
		params = append(params, &ast.Param{P: pos, Dir: dir, Name: name, Type: typ})
		if !p.accept(token.COMMA) {
			break
		}
	}
	p.expect(token.RPAREN)
	return params
}

func (p *parser) parseParser() ast.Decl {
	pos := p.tok.Pos
	p.expect(token.KwParser)
	name := p.expect(token.IDENT).Lit
	params := p.parseParams()
	p.expect(token.LBRACE)
	d := &ast.ParserDecl{P: pos, Name: name, Params: params}
	for p.tok.Kind != token.RBRACE && p.tok.Kind != token.EOF {
		for p.tok.Kind == token.AT {
			p.skipAnnotation()
		}
		if p.tok.Kind == token.KwState {
			d.States = append(d.States, p.parseState())
			continue
		}
		if l := p.parseLocalDecl(); l != nil {
			d.Locals = append(d.Locals, l)
		}
	}
	p.expect(token.RBRACE)
	return d
}

func (p *parser) parseState() *ast.StateDecl {
	pos := p.tok.Pos
	p.expect(token.KwState)
	name := p.expect(token.IDENT).Lit
	p.expect(token.LBRACE)
	st := &ast.StateDecl{P: pos, Name: name}
	for p.tok.Kind != token.RBRACE && p.tok.Kind != token.EOF {
		if p.tok.Kind == token.KwTransition {
			st.Trans = p.parseTransition()
			break
		}
		st.Stmts = append(st.Stmts, p.parseStmt())
	}
	p.expect(token.RBRACE)
	return st
}

func (p *parser) parseTransition() *ast.Transition {
	pos := p.tok.Pos
	p.expect(token.KwTransition)
	if p.tok.Kind == token.IDENT && p.tok.Lit == "select" {
		p.advance()
		p.expect(token.LPAREN)
		sel := &ast.SelectExpr{P: pos}
		for {
			sel.Exprs = append(sel.Exprs, p.parseExpr())
			if !p.accept(token.COMMA) {
				break
			}
		}
		p.expect(token.RPAREN)
		p.expect(token.LBRACE)
		for p.tok.Kind != token.RBRACE && p.tok.Kind != token.EOF {
			mark := p.progress()
			sel.Cases = append(sel.Cases, p.parseSelectCase())
			if p.stalled(mark) {
				p.advance()
			}
		}
		p.expect(token.RBRACE)
		return &ast.Transition{P: pos, Select: sel}
	}
	var next string
	switch p.tok.Kind {
	case token.IDENT:
		next = p.tok.Lit
		p.advance()
	default:
		p.errorf(p.tok.Pos, "expected state name after transition, found %v", p.tok)
		p.skipTo(token.SEMICOLON, token.RBRACE)
	}
	p.expect(token.SEMICOLON)
	return &ast.Transition{P: pos, Next: next}
}

func (p *parser) parseSelectCase() *ast.SelectCase {
	pos := p.tok.Pos
	c := &ast.SelectCase{P: pos}
	if p.accept(token.LPAREN) {
		for {
			c.Values = append(c.Values, p.parseSelectValue())
			if !p.accept(token.COMMA) {
				break
			}
		}
		p.expect(token.RPAREN)
	} else {
		c.Values = append(c.Values, p.parseSelectValue())
	}
	p.expect(token.COLON)
	c.Next = p.expect(token.IDENT).Lit
	p.expect(token.SEMICOLON)
	return c
}

func (p *parser) parseSelectValue() ast.Expr {
	if p.tok.Kind == token.KwDefault {
		pos := p.tok.Pos
		p.advance()
		return &ast.DefaultExpr{P: pos}
	}
	return p.parseExpr()
}

func (p *parser) parseControl() ast.Decl {
	pos := p.tok.Pos
	p.expect(token.KwControl)
	name := p.expect(token.IDENT).Lit
	params := p.parseParams()
	p.expect(token.LBRACE)
	d := &ast.ControlDecl{P: pos, Name: name, Params: params}
	for p.tok.Kind != token.RBRACE && p.tok.Kind != token.EOF {
		for p.tok.Kind == token.AT {
			p.skipAnnotation()
		}
		if p.tok.Kind == token.KwApply {
			p.advance()
			d.Apply = p.parseBlock()
			continue
		}
		if l := p.parseLocalDecl(); l != nil {
			d.Locals = append(d.Locals, l)
		}
	}
	p.expect(token.RBRACE)
	if d.Apply == nil {
		d.Apply = &ast.BlockStmt{P: pos}
	}
	return d
}

// parseLocalDecl parses control-/parser-local declarations: actions,
// tables, registers, constants and variables.
func (p *parser) parseLocalDecl() ast.Decl {
	switch p.tok.Kind {
	case token.KwAction:
		pos := p.tok.Pos
		p.advance()
		name := p.expect(token.IDENT).Lit
		params := p.parseParams()
		body := p.parseBlock()
		return &ast.ActionDecl{P: pos, Name: name, Params: params, Body: body}
	case token.KwTable:
		return p.parseTable()
	case token.KwRegister:
		pos := p.tok.Pos
		p.advance()
		p.expect(token.LANGLE)
		elem := p.parseType()
		p.expect(token.RANGLE)
		p.expect(token.LPAREN)
		size := p.parseIntValue()
		p.expect(token.RPAREN)
		name := p.expect(token.IDENT).Lit
		p.expect(token.SEMICOLON)
		return &ast.RegisterDecl{P: pos, Name: name, ElemType: elem, Size: size}
	case token.KwConst:
		return p.parseConst()
	case token.KwBit, token.KwBool, token.IDENT:
		pos := p.tok.Pos
		typ := p.parseType()
		name := p.expect(token.IDENT).Lit
		var init ast.Expr
		if p.accept(token.ASSIGN) {
			init = p.parseExpr()
		}
		p.expect(token.SEMICOLON)
		return &ast.VarDecl{P: pos, Name: name, Type: typ, Init: init}
	default:
		p.errorf(p.tok.Pos, "unexpected token %v in declaration context", p.tok)
		p.advance()
		return nil
	}
}

func (p *parser) parseTable() ast.Decl {
	pos := p.tok.Pos
	p.expect(token.KwTable)
	name := p.expect(token.IDENT).Lit
	p.expect(token.LBRACE)
	d := &ast.TableDecl{P: pos, Name: name}
	for p.tok.Kind != token.RBRACE && p.tok.Kind != token.EOF {
		mark := p.progress()
		for p.tok.Kind == token.AT {
			p.skipAnnotation()
		}
		switch p.tok.Kind {
		case token.KwKey:
			p.advance()
			p.expect(token.ASSIGN)
			p.expect(token.LBRACE)
			for p.tok.Kind != token.RBRACE && p.tok.Kind != token.EOF {
				kmark := p.progress()
				kpos := p.tok.Pos
				e := p.parseExpr()
				p.expect(token.COLON)
				mk := p.expect(token.IDENT).Lit
				p.expect(token.SEMICOLON)
				d.Keys = append(d.Keys, &ast.TableKey{P: kpos, Expr: e, MatchKind: mk})
				if p.stalled(kmark) {
					p.advance()
				}
			}
			p.expect(token.RBRACE)
			p.accept(token.SEMICOLON)
		case token.KwActions:
			p.advance()
			p.expect(token.ASSIGN)
			p.expect(token.LBRACE)
			for p.tok.Kind != token.RBRACE && p.tok.Kind != token.EOF {
				amark := p.progress()
				for p.tok.Kind == token.AT {
					p.skipAnnotation()
				}
				apos := p.tok.Pos
				aname := p.expect(token.IDENT).Lit
				ref := &ast.ActionRef{P: apos, Name: aname}
				if p.accept(token.LPAREN) {
					for p.tok.Kind != token.RPAREN && p.tok.Kind != token.EOF {
						ref.Args = append(ref.Args, p.parseExpr())
						if !p.accept(token.COMMA) {
							break
						}
					}
					p.expect(token.RPAREN)
				}
				p.expect(token.SEMICOLON)
				d.Actions = append(d.Actions, ref)
				if p.stalled(amark) {
					p.advance()
				}
			}
			p.expect(token.RBRACE)
			p.accept(token.SEMICOLON)
		case token.KwDefaultAction:
			p.advance()
			p.expect(token.ASSIGN)
			apos := p.tok.Pos
			aname := p.expect(token.IDENT).Lit
			ref := &ast.ActionRef{P: apos, Name: aname}
			if p.accept(token.LPAREN) {
				for p.tok.Kind != token.RPAREN && p.tok.Kind != token.EOF {
					ref.Args = append(ref.Args, p.parseExpr())
					if !p.accept(token.COMMA) {
						break
					}
				}
				p.expect(token.RPAREN)
			}
			p.expect(token.SEMICOLON)
			d.Default = ref
		case token.KwSize:
			p.advance()
			p.expect(token.ASSIGN)
			d.Size = p.parseIntValue()
			p.expect(token.SEMICOLON)
		case token.KwConst:
			// const entries / const default_action: accept the const and
			// re-dispatch.
			p.advance()
		case token.KwEntries:
			// Static entries are not part of the subset; skip the block.
			p.advance()
			p.expect(token.ASSIGN)
			p.skipBraceBlockOrSemi()
		case token.IDENT:
			// Unknown property (counters, meters, implementation...): skip.
			p.advance()
			if p.accept(token.ASSIGN) {
				p.skipTo(token.SEMICOLON, token.RBRACE)
				p.accept(token.SEMICOLON)
			}
		default:
			p.errorf(p.tok.Pos, "unexpected token %v in table", p.tok)
			p.advance()
		}
		if p.stalled(mark) {
			p.advance()
		}
	}
	p.expect(token.RBRACE)
	return d
}

func (p *parser) parseInstantiation() ast.Decl {
	pos := p.tok.Pos
	typeName := p.expect(token.IDENT).Lit
	// Optional type arguments: V1Switch<H, M>(...).
	if p.tok.Kind == token.LANGLE {
		depth := 0
		for p.tok.Kind != token.EOF {
			if p.tok.Kind == token.LANGLE {
				depth++
			}
			if p.tok.Kind == token.RANGLE {
				depth--
				if depth == 0 {
					p.advance()
					break
				}
			}
			p.advance()
		}
	}
	d := &ast.InstantiationDecl{P: pos, TypeName: typeName}
	p.expect(token.LPAREN)
	for p.tok.Kind != token.RPAREN && p.tok.Kind != token.EOF {
		d.Args = append(d.Args, p.parseExpr())
		if !p.accept(token.COMMA) {
			break
		}
	}
	p.expect(token.RPAREN)
	d.Name = p.expect(token.IDENT).Lit
	p.expect(token.SEMICOLON)
	return d
}

// ---------------------------------------------------------------- stmts

func (p *parser) parseBlock() *ast.BlockStmt {
	pos := p.tok.Pos
	p.expect(token.LBRACE)
	b := &ast.BlockStmt{P: pos}
	for p.tok.Kind != token.RBRACE && p.tok.Kind != token.EOF {
		b.Stmts = append(b.Stmts, p.parseStmt())
	}
	p.expect(token.RBRACE)
	return b
}

// parseStmtOrBlock wraps a single statement in a block if needed (P4
// allows unbraced if bodies).
func (p *parser) parseStmtOrBlock() *ast.BlockStmt {
	if p.tok.Kind == token.LBRACE {
		return p.parseBlock()
	}
	s := p.parseStmt()
	return &ast.BlockStmt{P: s.Pos(), Stmts: []ast.Stmt{s}}
}

func (p *parser) parseStmt() ast.Stmt {
	p.enter()
	defer p.leave()
	pos := p.tok.Pos
	switch p.tok.Kind {
	case token.LBRACE:
		return p.parseBlock()
	case token.SEMICOLON:
		p.advance()
		return &ast.EmptyStmt{P: pos}
	case token.KwIf:
		p.advance()
		p.expect(token.LPAREN)
		cond := p.parseExpr()
		p.expect(token.RPAREN)
		then := p.parseStmtOrBlock()
		st := &ast.IfStmt{P: pos, Cond: cond, Then: then}
		if p.accept(token.KwElse) {
			if p.tok.Kind == token.KwIf {
				st.Else = p.parseStmt()
			} else {
				st.Else = p.parseStmtOrBlock()
			}
		}
		return st
	case token.KwSwitch:
		return p.parseSwitch()
	case token.KwExit:
		p.advance()
		p.expect(token.SEMICOLON)
		return &ast.ExitStmt{P: pos}
	case token.KwReturn:
		p.advance()
		p.expect(token.SEMICOLON)
		return &ast.ReturnStmt{P: pos}
	case token.KwBit, token.KwBool:
		typ := p.parseType()
		name := p.expect(token.IDENT).Lit
		var init ast.Expr
		if p.accept(token.ASSIGN) {
			init = p.parseExpr()
		}
		p.expect(token.SEMICOLON)
		return &ast.VarDeclStmt{Decl: &ast.VarDecl{P: pos, Name: name, Type: typ, Init: init}}
	case token.IDENT:
		// Could be a typed declaration (Type name = ...) or an
		// assignment/call. Disambiguate with one token of lookahead:
		// IDENT IDENT is a declaration.
		if p.next.Kind == token.IDENT {
			typ := p.parseType()
			name := p.expect(token.IDENT).Lit
			var init ast.Expr
			if p.accept(token.ASSIGN) {
				init = p.parseExpr()
			}
			p.expect(token.SEMICOLON)
			return &ast.VarDeclStmt{Decl: &ast.VarDecl{P: pos, Name: name, Type: typ, Init: init}}
		}
		return p.parseSimpleStmt()
	default:
		p.errorf(pos, "unexpected token %v in statement", p.tok)
		p.advance()
		return &ast.EmptyStmt{P: pos}
	}
}

func (p *parser) parseSimpleStmt() ast.Stmt {
	pos := p.tok.Pos
	lhs := p.parseExpr()
	if p.accept(token.ASSIGN) {
		rhs := p.parseExpr()
		p.expect(token.SEMICOLON)
		return &ast.AssignStmt{P: pos, LHS: lhs, RHS: rhs}
	}
	p.expect(token.SEMICOLON)
	if call, ok := lhs.(*ast.CallExpr); ok {
		return &ast.CallStmt{P: pos, Call: call}
	}
	p.errorf(pos, "expression statement must be a call")
	return &ast.EmptyStmt{P: pos}
}

func (p *parser) parseSwitch() ast.Stmt {
	pos := p.tok.Pos
	p.expect(token.KwSwitch)
	p.expect(token.LPAREN)
	// Expect t.apply().action_run.
	e := p.parseExpr()
	p.expect(token.RPAREN)
	var table ast.Expr
	if m, ok := e.(*ast.Member); ok && m.Name == "action_run" {
		if call, ok := m.X.(*ast.CallExpr); ok {
			if fm, ok := call.Fun.(*ast.Member); ok && fm.Name == "apply" {
				table = fm.X
			}
		}
	}
	if table == nil {
		p.errorf(pos, "switch expression must be <table>.apply().action_run")
		table = &ast.Ident{P: pos, Name: "_invalid"}
	}
	st := &ast.SwitchStmt{P: pos, Table: table}
	p.expect(token.LBRACE)
	for p.tok.Kind != token.RBRACE && p.tok.Kind != token.EOF {
		cpos := p.tok.Pos
		label := ""
		if p.tok.Kind == token.KwDefault {
			p.advance()
		} else {
			label = p.expect(token.IDENT).Lit
		}
		p.expect(token.COLON)
		c := &ast.SwitchCase{P: cpos, Label: label}
		if p.tok.Kind == token.LBRACE {
			c.Body = p.parseBlock()
		}
		st.Cases = append(st.Cases, c)
	}
	p.expect(token.RBRACE)
	return st
}

// ---------------------------------------------------------------- exprs

// Binary operator precedence (higher binds tighter).
func binaryPrec(k token.Kind) int {
	switch k {
	case token.OR:
		return 1
	case token.AND:
		return 2
	case token.EQ, token.NEQ:
		return 3
	case token.LANGLE, token.RANGLE, token.LEQ, token.GEQ:
		return 4
	case token.PIPE:
		return 5
	case token.CARET:
		return 6
	case token.AMP:
		return 7
	case token.SHL, token.SHR:
		return 8
	case token.PLUS, token.MINUS, token.PLUSPLUS:
		return 9
	case token.STAR, token.SLASH, token.PERCENT:
		return 10
	default:
		return 0
	}
}

func (p *parser) parseExpr() ast.Expr {
	p.enter()
	defer p.leave()
	e := p.parseTernary()
	if p.arrows && p.tok.Kind == token.ARROW {
		pos := p.tok.Pos
		p.advance()
		e = &ast.BinaryExpr{P: pos, Op: token.ARROW, X: e, Y: p.parseExpr()}
	}
	return e
}

func (p *parser) parseTernary() ast.Expr {
	cond := p.parseBinary(1)
	if p.tok.Kind == token.QUESTION {
		pos := p.tok.Pos
		p.advance()
		then := p.parseExpr()
		p.expect(token.COLON)
		els := p.parseExpr()
		return &ast.TernaryExpr{P: pos, Cond: cond, Then: then, Else: els}
	}
	return cond
}

func (p *parser) parseBinary(minPrec int) ast.Expr {
	lhs := p.parseUnary()
	for links := 0; ; links++ {
		prec := binaryPrec(p.tok.Kind)
		if prec == 0 || prec < minPrec {
			p.depth -= links
			return lhs
		}
		op := p.tok.Kind
		pos := p.tok.Pos
		p.advance()
		p.enter() // each link of a left-associative chain deepens the tree
		rhs := p.parseBinary(prec + 1)
		lhs = &ast.BinaryExpr{P: pos, Op: op, X: lhs, Y: rhs}
	}
}

func (p *parser) parseUnary() ast.Expr {
	p.enter()
	defer p.leave()
	pos := p.tok.Pos
	switch p.tok.Kind {
	case token.MINUS, token.TILDE, token.NOT:
		op := p.tok.Kind
		p.advance()
		return &ast.UnaryExpr{P: pos, Op: op, X: p.parseUnary()}
	case token.LPAREN:
		// Cast: (bit<N>)x or (bool)x. Otherwise a parenthesized expr.
		if p.next.Kind == token.KwBit || p.next.Kind == token.KwBool {
			p.advance()
			typ := p.parseType()
			p.expect(token.RPAREN)
			return &ast.CastExpr{P: pos, Type: typ, X: p.parseUnary()}
		}
		p.advance()
		e := p.parseExpr()
		p.expect(token.RPAREN)
		return p.parsePostfix(e)
	}
	return p.parsePostfix(p.parsePrimary())
}

func (p *parser) parsePrimary() ast.Expr {
	pos := p.tok.Pos
	switch p.tok.Kind {
	case token.IDENT:
		name := p.tok.Lit
		p.advance()
		return &ast.Ident{P: pos, Name: name}
	case token.INT:
		lit := p.tok.Lit
		p.advance()
		w, v, err := ParseIntLit(lit)
		if err != nil {
			p.errorf(pos, "%v", err)
			v = big.NewInt(0)
		}
		return &ast.IntLit{P: pos, Width: w, Val: v}
	case token.KwTrue:
		p.advance()
		return &ast.BoolLit{P: pos, Val: true}
	case token.KwFalse:
		p.advance()
		return &ast.BoolLit{P: pos, Val: false}
	case token.KwDefault:
		p.advance()
		return &ast.DefaultExpr{P: pos}
	default:
		p.errorf(pos, "unexpected token %v in expression", p.tok)
		p.advance()
		return &ast.IntLit{P: pos, Val: big.NewInt(0)}
	}
}

func (p *parser) parsePostfix(e ast.Expr) ast.Expr {
	for links := 0; ; links++ {
		pos := p.tok.Pos
		switch p.tok.Kind {
		case token.DOT, token.LBRACKET, token.LPAREN:
			p.enter() // as in parseBinary
		default:
			p.depth -= links
			return e
		}
		switch p.tok.Kind {
		case token.DOT:
			p.advance()
			var name string
			switch p.tok.Kind {
			case token.IDENT:
				name = p.tok.Lit
				p.advance()
			case token.KwApply:
				name = "apply"
				p.advance()
			default:
				p.errorf(p.tok.Pos, "expected member name, found %v", p.tok)
				p.advance()
			}
			e = &ast.Member{P: pos, X: e, Name: name}
		case token.LBRACKET:
			p.advance()
			idx := p.parseExpr()
			p.expect(token.RBRACKET)
			e = &ast.IndexExpr{P: pos, X: e, Index: idx}
		case token.LPAREN:
			p.advance()
			call := &ast.CallExpr{P: pos, Fun: e}
			for p.tok.Kind != token.RPAREN && p.tok.Kind != token.EOF {
				call.Args = append(call.Args, p.parseExpr())
				if !p.accept(token.COMMA) {
					break
				}
			}
			p.expect(token.RPAREN)
			e = call
		}
	}
}
