package ast

import (
	"math/big"
	"strings"
	"testing"

	"bf4/internal/p4/token"
)

func TestPathString(t *testing.T) {
	hdr := &Ident{Name: "hdr"}
	ipv4 := &Member{X: hdr, Name: "ipv4"}
	cases := []struct {
		expr Expr
		want string
	}{
		{hdr, "hdr"},
		{ipv4, "hdr.ipv4"},
		{&Member{X: ipv4, Name: "ttl"}, "hdr.ipv4.ttl"},
		{&IndexExpr{X: &Member{X: hdr, Name: "vlan"}, Index: &IntLit{Val: big.NewInt(1)}}, "hdr.vlan[1]"},
		{&CallExpr{Fun: &Member{X: ipv4, Name: "isValid"}}, "hdr.ipv4.isValid()"},
		// Non-paths degrade to "".
		{&BinaryExpr{Op: token.PLUS, X: hdr, Y: hdr}, ""},
		{&CallExpr{Fun: &Member{X: ipv4, Name: "isValid"}, Args: []Expr{hdr}}, ""},
		{&IndexExpr{X: hdr, Index: hdr}, ""},
	}
	for _, c := range cases {
		if got := PathString(c.expr); got != c.want {
			t.Errorf("PathString = %q, want %q", got, c.want)
		}
	}
}

func TestPrintExprForms(t *testing.T) {
	a, b := &Ident{Name: "a"}, &Ident{Name: "b"}
	cases := []struct {
		expr Expr
		want string
	}{
		{&IntLit{Width: 8, Val: big.NewInt(255)}, "8w255"},
		{&IntLit{Val: big.NewInt(7)}, "7"},
		{&BoolLit{Val: true}, "true"},
		{&UnaryExpr{Op: token.NOT, X: a}, "!a"},
		{&BinaryExpr{Op: token.PLUS, X: a, Y: b}, "a + b"},
		{&CastExpr{Type: &BitType{Width: 9}, X: a}, "(bit<9>)a"},
		{&TernaryExpr{Cond: a, Then: b, Else: a}, "a ? b : a"},
		{&DefaultExpr{}, "default"},
		// Nested precedence: (a + b) * b needs parens.
		{&BinaryExpr{Op: token.STAR, X: &BinaryExpr{Op: token.PLUS, X: a, Y: b}, Y: b}, "(a + b) * b"},
	}
	for _, c := range cases {
		if got := PrintExpr(c.expr); got != c.want {
			t.Errorf("PrintExpr = %q, want %q", got, c.want)
		}
	}
}

// printType renders a type reference.
func printType(t Type) string {
	pr := &printer{}
	pr.typ(t)
	return pr.b.String()
}

// printStmt renders a single statement.
func printStmt(s Stmt) string {
	pr := &printer{}
	pr.stmt(s)
	return strings.TrimRight(pr.b.String(), "\n")
}

func TestPrintType(t *testing.T) {
	if got := printType(&BitType{Width: 48}); got != "bit<48>" {
		t.Errorf("got %q", got)
	}
	if got := printType(&BoolType{}); got != "bool" {
		t.Errorf("got %q", got)
	}
	if got := printType(&StackType{Elem: &NamedType{Name: "vlan_t"}, Size: 2}); got != "vlan_t[2]" {
		t.Errorf("got %q", got)
	}
}

func TestPrintStmt(t *testing.T) {
	s := &IfStmt{
		Cond: &Ident{Name: "c"},
		Then: &BlockStmt{Stmts: []Stmt{
			&AssignStmt{LHS: &Ident{Name: "x"}, RHS: &IntLit{Width: 8, Val: big.NewInt(1)}},
		}},
		Else: &BlockStmt{Stmts: []Stmt{&ExitStmt{}}},
	}
	out := printStmt(s)
	for _, want := range []string{"if (c)", "x = 8w1;", "exit;", "} else {"} {
		if !strings.Contains(out, want) {
			t.Errorf("printStmt lacks %q:\n%s", want, out)
		}
	}
}

func TestPrintTableWithSynthesizedKey(t *testing.T) {
	prog := &Program{Decls: []Decl{
		&ControlDecl{
			Name:   "c",
			Params: []*Param{{Dir: "inout", Name: "hdr", Type: &NamedType{Name: "headers"}}},
			Locals: []Decl{
				&TableDecl{
					Name: "t",
					Keys: []*TableKey{
						{Expr: &Member{X: &Ident{Name: "hdr"}, Name: "f"}, MatchKind: "exact"},
						{Expr: &CallExpr{Fun: &Member{X: &Member{X: &Ident{Name: "hdr"}, Name: "h"}, Name: "isValid"}}, MatchKind: "exact"},
					},
					Actions: []*ActionRef{{Name: "NoAction"}},
					Size:    64,
				},
			},
			Apply: &BlockStmt{},
		},
	}}
	out := Print(prog)
	for _, want := range []string{"hdr.f: exact;", "hdr.h.isValid(): exact;", "size = 64;"} {
		if !strings.Contains(out, want) {
			t.Errorf("Print lacks %q:\n%s", want, out)
		}
	}
}
