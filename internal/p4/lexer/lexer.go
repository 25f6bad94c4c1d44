// Package lexer tokenizes P4-16 source for bf4's frontend. It handles
// line and block comments, width-prefixed integer literals (8w255,
// 0x0800, 1w0b1), preprocessor-style lines (#include — skipped, the
// corpus is self-contained), and @annotations (lexed as AT + tokens).
package lexer

import (
	"fmt"

	"bf4/internal/p4/token"
)

// Lexer scans a P4 source buffer into tokens.
type Lexer struct {
	src  string
	off  int
	line int
	col  int

	errs []error
}

// New returns a lexer over src.
func New(src string) *Lexer { return NewAt(src, token.Pos{Line: 1, Col: 1}) }

// NewAt returns a lexer over src whose first byte sits at pos, for a
// fragment embedded in a larger file (a property predicate in a comment
// or a .props line).
func NewAt(src string, pos token.Pos) *Lexer {
	return &Lexer{src: src, line: pos.Line, col: pos.Col}
}

// Errors returns lexical errors encountered so far.
func (l *Lexer) Errors() []error { return l.errs }

func (l *Lexer) errorf(pos token.Pos, format string, args ...interface{}) {
	l.errs = append(l.errs, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
	ch := l.src[l.off]
	l.off++
	if ch == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return ch
}

func (l *Lexer) pos() token.Pos { return token.Pos{Line: l.line, Col: l.col} }

func isDigit(ch byte) bool { return ch >= '0' && ch <= '9' }
func isHexDigit(ch byte) bool {
	return isDigit(ch) || (ch >= 'a' && ch <= 'f') || (ch >= 'A' && ch <= 'F')
}
func isLetter(ch byte) bool {
	return ch == '_' || (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z')
}

func (l *Lexer) skipSpaceAndComments() {
	for l.off < len(l.src) {
		ch := l.peek()
		switch {
		case ch == ' ' || ch == '\t' || ch == '\r' || ch == '\n':
			l.advance()
		case ch == '/' && l.peek2() == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case ch == '/' && l.peek2() == '*':
			start := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.off < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				l.errorf(start, "unterminated block comment")
			}
		case ch == '#':
			// Preprocessor line (e.g. #include <core.p4>): skip to EOL.
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		default:
			return
		}
	}
}

// Next returns the next token.
func (l *Lexer) Next() token.Token {
	l.skipSpaceAndComments()
	pos := l.pos()
	if l.off >= len(l.src) {
		return token.Token{Kind: token.EOF, Pos: pos}
	}
	ch := l.advance()
	switch {
	case isLetter(ch):
		return l.identOrKeyword(pos, ch)
	case isDigit(ch):
		return l.number(pos, ch)
	}
	mk := func(k token.Kind) token.Token { return token.Token{Kind: k, Pos: pos} }
	switch ch {
	case '(':
		return mk(token.LPAREN)
	case ')':
		return mk(token.RPAREN)
	case '{':
		return mk(token.LBRACE)
	case '}':
		return mk(token.RBRACE)
	case '[':
		return mk(token.LBRACKET)
	case ']':
		return mk(token.RBRACKET)
	case ',':
		return mk(token.COMMA)
	case ';':
		return mk(token.SEMICOLON)
	case ':':
		return mk(token.COLON)
	case '.':
		return mk(token.DOT)
	case '@':
		return mk(token.AT)
	case '?':
		return mk(token.QUESTION)
	case '~':
		return mk(token.TILDE)
	case '^':
		return mk(token.CARET)
	case '%':
		return mk(token.PERCENT)
	case '/':
		return mk(token.SLASH)
	case '*':
		return mk(token.STAR)
	case '+':
		if l.peek() == '+' {
			l.advance()
			return mk(token.PLUSPLUS)
		}
		return mk(token.PLUS)
	case '-':
		if l.peek() == '>' {
			l.advance()
			return mk(token.ARROW)
		}
		return mk(token.MINUS)
	case '=':
		if l.peek() == '=' {
			l.advance()
			return mk(token.EQ)
		}
		return mk(token.ASSIGN)
	case '!':
		if l.peek() == '=' {
			l.advance()
			return mk(token.NEQ)
		}
		return mk(token.NOT)
	case '<':
		switch l.peek() {
		case '<':
			l.advance()
			return mk(token.SHL)
		case '=':
			l.advance()
			return mk(token.LEQ)
		}
		return mk(token.LANGLE)
	case '>':
		switch l.peek() {
		case '>':
			l.advance()
			return mk(token.SHR)
		case '=':
			l.advance()
			return mk(token.GEQ)
		}
		return mk(token.RANGLE)
	case '&':
		if l.peek() == '&' {
			l.advance()
			return mk(token.AND)
		}
		return mk(token.AMP)
	case '|':
		if l.peek() == '|' {
			l.advance()
			return mk(token.OR)
		}
		return mk(token.PIPE)
	case '"':
		start := l.off
		for l.off < len(l.src) && l.peek() != '"' {
			l.advance()
		}
		lit := l.src[start:l.off]
		if l.off < len(l.src) {
			l.advance()
		} else {
			l.errorf(pos, "unterminated string")
		}
		return token.Token{Kind: token.STRING, Lit: lit, Pos: pos}
	}
	l.errorf(pos, "unexpected character %q", ch)
	return token.Token{Kind: token.ILLEGAL, Lit: string(ch), Pos: pos}
}

func (l *Lexer) identOrKeyword(pos token.Pos, first byte) token.Token {
	start := l.off - 1
	for l.off < len(l.src) && (isLetter(l.peek()) || isDigit(l.peek())) {
		l.advance()
	}
	lit := l.src[start:l.off]
	if k, ok := token.Keywords[lit]; ok {
		return token.Token{Kind: k, Lit: lit, Pos: pos}
	}
	return token.Token{Kind: token.IDENT, Lit: lit, Pos: pos}
}

// number scans integer literals: 42, 0xff, 0b101, and width-prefixed
// forms such as 8w255, 9w0x1ff, 1w0b1, 4s7 (signed widths are accepted and
// treated as unsigned by the subset).
func (l *Lexer) number(pos token.Pos, first byte) token.Token {
	start := l.off - 1
	consumeDigits := func(hex bool) {
		for l.off < len(l.src) {
			ch := l.peek()
			if ch == '_' || isDigit(ch) || (hex && isHexDigit(ch)) {
				l.advance()
				continue
			}
			break
		}
	}
	scanMagnitude := func() {
		if l.peek() == 'x' || l.peek() == 'X' {
			l.advance()
			consumeDigits(true)
			return
		}
		if l.peek() == 'b' || l.peek() == 'B' {
			l.advance()
			consumeDigits(false)
			return
		}
		consumeDigits(false)
	}
	if first == '0' && (l.peek() == 'x' || l.peek() == 'X' || l.peek() == 'b' || l.peek() == 'B') {
		scanMagnitude()
	} else {
		consumeDigits(false)
		// Width prefix? e.g. 8w..., 8s...
		if l.peek() == 'w' || l.peek() == 's' {
			l.advance()
			if l.off < len(l.src) && (isDigit(l.peek()) || l.peek() == '0') {
				first2 := l.advance()
				if first2 == '0' && (l.peek() == 'x' || l.peek() == 'X' || l.peek() == 'b' || l.peek() == 'B') {
					scanMagnitude()
				} else {
					consumeDigits(false)
				}
			} else {
				l.errorf(pos, "width prefix without magnitude")
			}
		}
	}
	return token.Token{Kind: token.INT, Lit: l.src[start:l.off], Pos: pos}
}

// All scans the entire input, returning every token including the final
// EOF. Mostly a testing convenience.
func (l *Lexer) All() []token.Token {
	var out []token.Token
	for {
		t := l.Next()
		out = append(out, t)
		if t.Kind == token.EOF {
			return out
		}
	}
}
