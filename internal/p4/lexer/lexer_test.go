package lexer

import (
	"testing"

	"bf4/internal/p4/token"
)

// all scans the entire input, returning every token including the final
// EOF.
func all(l *Lexer) []token.Token {
	var out []token.Token
	for {
		t := l.Next()
		out = append(out, t)
		if t.Kind == token.EOF {
			return out
		}
	}
}

func kinds(src string) []token.Kind {
	var out []token.Kind
	for _, t := range all(New(src)) {
		out = append(out, t.Kind)
	}
	return out
}

func TestBasicTokens(t *testing.T) {
	got := kinds("table nat { key = { x: exact; } }")
	want := []token.Kind{
		token.KwTable, token.IDENT, token.LBRACE, token.KwKey, token.ASSIGN,
		token.LBRACE, token.IDENT, token.COLON, token.IDENT, token.SEMICOLON,
		token.RBRACE, token.RBRACE, token.EOF,
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("token %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestOperators(t *testing.T) {
	got := kinds("== != <= >= << >> && || ++ -> - > = < > & | ! ~ ^")
	want := []token.Kind{
		token.EQ, token.NEQ, token.LEQ, token.GEQ, token.SHL, token.SHR,
		token.AND, token.OR, token.PLUSPLUS, token.ARROW, token.MINUS,
		token.RANGLE, token.ASSIGN, token.LANGLE,
		token.RANGLE, token.AMP, token.PIPE, token.NOT, token.TILDE,
		token.CARET, token.EOF,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestNumbers(t *testing.T) {
	cases := []struct{ src, lit string }{
		{"42", "42"},
		{"0xFF", "0xFF"},
		{"0b1010", "0b1010"},
		{"8w255", "8w255"},
		{"9w0x1FF", "9w0x1FF"},
		{"1w0b1", "1w0b1"},
		{"4s7", "4s7"},
		{"32w0xdead_beef", "32w0xdead_beef"},
	}
	for _, c := range cases {
		toks := all(New(c.src))
		if toks[0].Kind != token.INT || toks[0].Lit != c.lit {
			t.Errorf("%q: got %v", c.src, toks[0])
		}
		if toks[1].Kind != token.EOF {
			t.Errorf("%q: trailing token %v", c.src, toks[1])
		}
	}
}

func TestCommentsAndPreprocessor(t *testing.T) {
	src := `
#include <core.p4>
// line comment
/* block
   comment */
header h { bit<8> x; }
`
	got := kinds(src)
	want := []token.Kind{
		token.KwHeader, token.IDENT, token.LBRACE, token.KwBit, token.LANGLE,
		token.INT, token.RANGLE, token.IDENT, token.SEMICOLON, token.RBRACE,
		token.EOF,
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestPositions(t *testing.T) {
	toks := all(New("a\n  b"))
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("a at %v", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Errorf("b at %v", toks[1].Pos)
	}
}

func TestUnterminatedComment(t *testing.T) {
	l := New("/* never closed")
	all(l)
	if len(l.Errors()) == 0 {
		t.Fatal("expected error for unterminated comment")
	}
}

func TestIllegalChar(t *testing.T) {
	l := New("$")
	toks := all(l)
	if toks[0].Kind != token.ILLEGAL {
		t.Fatalf("got %v, want ILLEGAL", toks[0])
	}
	if len(l.Errors()) == 0 {
		t.Fatal("expected lexical error")
	}
}

func TestKeywordsVsIdents(t *testing.T) {
	toks := all(New("tables applying if0 if"))
	want := []token.Kind{token.IDENT, token.IDENT, token.IDENT, token.KwIf, token.EOF}
	for i := range want {
		if toks[i].Kind != want[i] {
			t.Fatalf("token %d: got %v, want %v", i, toks[i], want[i])
		}
	}
}
