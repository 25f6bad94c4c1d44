package parser

import (
	"fmt"
	"strings"
	"testing"

	"bf4/internal/p4/ast"
	"bf4/internal/p4/token"
)

// miniNAT is a condensed version of the paper's running example
// (Figure 1) and doubles as the canonical parse test.
const miniNAT = `
#include <core.p4>
#include <v1model.p4>

typedef bit<32> ip4Addr_t;

header ethernet_t {
    bit<48> dstAddr;
    bit<48> srcAddr;
    bit<16> etherType;
}

header ipv4_t {
    bit<8>  ttl;
    ip4Addr_t srcAddr;
    ip4Addr_t dstAddr;
}

struct meta_t {
    bit<1>  do_forward;
    bit<32> ipv4_sa;
    bit<32> nhop_ipv4;
}

struct metadata {
    meta_t meta;
}

struct headers {
    ethernet_t ethernet;
    ipv4_t     ipv4;
}

parser MyParser(packet_in packet, out headers hdr, inout metadata meta,
                inout standard_metadata_t standard_metadata) {
    state start {
        packet.extract(hdr.ethernet);
        transition select(hdr.ethernet.etherType) {
            16w0x800: parse_ipv4;
            default: accept;
        }
    }
    state parse_ipv4 {
        packet.extract(hdr.ipv4);
        transition accept;
    }
}

control MyIngress(inout headers hdr, inout metadata meta,
                  inout standard_metadata_t standard_metadata) {
    action drop_() {
        mark_to_drop(standard_metadata);
    }
    action nat_hit_int_to_ext(bit<32> a, bit<9> p) {
        meta.meta.do_forward = 1w1;
        meta.meta.ipv4_sa = a;
        standard_metadata.egress_spec = p;
    }
    table nat {
        key = {
            hdr.ipv4.isValid(): exact;
            hdr.ipv4.srcAddr: ternary;
        }
        actions = {
            drop_;
            nat_hit_int_to_ext;
        }
        default_action = drop_();
        size = 128;
    }
    action set_nhop(bit<32> nhop_ipv4, bit<9> port) {
        meta.meta.nhop_ipv4 = nhop_ipv4;
        standard_metadata.egress_spec = port;
        hdr.ipv4.ttl = hdr.ipv4.ttl - 1;
    }
    table ipv4_lpm {
        key = { meta.meta.nhop_ipv4: lpm; }
        actions = { set_nhop; drop_; }
    }
    apply {
        nat.apply();
        if (meta.meta.do_forward == 1w1) {
            ipv4_lpm.apply();
        }
    }
}

control MyEgress(inout headers hdr, inout metadata meta,
                 inout standard_metadata_t standard_metadata) {
    apply { }
}

control MyDeparser(packet_out packet, in headers hdr) {
    apply {
        packet.emit(hdr.ethernet);
        packet.emit(hdr.ipv4);
    }
}

V1Switch(MyParser(), MyIngress(), MyEgress(), MyDeparser()) main;
`

func TestParseMiniNAT(t *testing.T) {
	prog, err := Parse(miniNAT)
	if err != nil {
		t.Fatalf("parse error: %v", err)
	}
	var headers, structs, parsers, controls, insts int
	for _, d := range prog.Decls {
		switch d.(type) {
		case *ast.HeaderDecl:
			headers++
		case *ast.StructDecl:
			structs++
		case *ast.ParserDecl:
			parsers++
		case *ast.ControlDecl:
			controls++
		case *ast.InstantiationDecl:
			insts++
		}
	}
	if headers != 2 || structs != 3 || parsers != 1 || controls != 3 || insts != 1 {
		t.Fatalf("decl counts: headers=%d structs=%d parsers=%d controls=%d insts=%d",
			headers, structs, parsers, controls, insts)
	}
}

func findControl(t *testing.T, prog *ast.Program, name string) *ast.ControlDecl {
	t.Helper()
	for _, d := range prog.Decls {
		if c, ok := d.(*ast.ControlDecl); ok && c.Name == name {
			return c
		}
	}
	t.Fatalf("control %s not found", name)
	return nil
}

func TestTableStructure(t *testing.T) {
	prog, err := Parse(miniNAT)
	if err != nil {
		t.Fatal(err)
	}
	ing := findControl(t, prog, "MyIngress")
	var nat *ast.TableDecl
	for _, l := range ing.Locals {
		if tb, ok := l.(*ast.TableDecl); ok && tb.Name == "nat" {
			nat = tb
		}
	}
	if nat == nil {
		t.Fatal("table nat not found")
	}
	if len(nat.Keys) != 2 {
		t.Fatalf("nat keys = %d, want 2", len(nat.Keys))
	}
	if nat.Keys[0].MatchKind != "exact" || nat.Keys[1].MatchKind != "ternary" {
		t.Fatalf("match kinds: %s, %s", nat.Keys[0].MatchKind, nat.Keys[1].MatchKind)
	}
	if got := ast.PathString(nat.Keys[0].Expr); got != "hdr.ipv4.isValid()" {
		t.Fatalf("key 0 path = %q", got)
	}
	if len(nat.Actions) != 2 || nat.Actions[1].Name != "nat_hit_int_to_ext" {
		t.Fatalf("actions: %+v", nat.Actions)
	}
	if nat.Default == nil || nat.Default.Name != "drop_" {
		t.Fatalf("default action: %+v", nat.Default)
	}
	if nat.Size != 128 {
		t.Fatalf("size = %d", nat.Size)
	}
}

func TestParserStates(t *testing.T) {
	prog, err := Parse(miniNAT)
	if err != nil {
		t.Fatal(err)
	}
	var pd *ast.ParserDecl
	for _, d := range prog.Decls {
		if x, ok := d.(*ast.ParserDecl); ok {
			pd = x
		}
	}
	if pd == nil || len(pd.States) != 2 {
		t.Fatalf("parser states: %+v", pd)
	}
	start := pd.States[0]
	if start.Trans == nil || start.Trans.Select == nil {
		t.Fatal("start state must have a select transition")
	}
	if len(start.Trans.Select.Cases) != 2 {
		t.Fatalf("select cases = %d", len(start.Trans.Select.Cases))
	}
	if start.Trans.Select.Cases[1].Next != "accept" {
		t.Fatalf("default case target = %s", start.Trans.Select.Cases[1].Next)
	}
	if _, ok := start.Trans.Select.Cases[1].Values[0].(*ast.DefaultExpr); !ok {
		t.Fatal("second case must be default")
	}
}

func TestIntLitForms(t *testing.T) {
	cases := []struct {
		src   string
		width int
		val   int64
	}{
		{"42", 0, 42},
		{"0xFF", 0, 255},
		{"0b101", 0, 5},
		{"8w255", 8, 255},
		{"9w0x1FF", 9, 511},
		{"1w0b1", 1, 1},
		{"4s7", 4, 7},
		{"32w0xdead_beef", 32, 0xdeadbeef},
		{"4096w1", 4096, 1},
	}
	for _, c := range cases {
		e, err := ParseExpr(c.src)
		if err != nil {
			t.Errorf("%q: %v", c.src, err)
			continue
		}
		lit, ok := e.(*ast.IntLit)
		if !ok {
			t.Errorf("%q: not an IntLit: %T", c.src, e)
			continue
		}
		if lit.Width != c.width || lit.Val.Int64() != c.val {
			t.Errorf("%q: got width=%d val=%d, want %d/%d", c.src, lit.Width, lit.Val.Int64(), c.width, c.val)
		}
	}
	// A width is 1..4096, in a literal and in bit<N> alike; it never wraps
	// and a zero width is not "unsized".
	for _, src := range []string{"99999999999999999999w1", "0w1", "4097w1", "0s1"} {
		if _, err := ParseExpr(src); err == nil || !strings.HasPrefix(err.Error(), "1:1: ") {
			t.Errorf("%q: got %v, want a 1:1: width error", src, err)
		}
	}
	for _, w := range []string{"0", "4097", "99999999999999999999"} {
		_, err := Parse("header h_t { bit<" + w + "> f; }")
		if err == nil || !strings.HasPrefix(err.Error(), "1:18: ") {
			t.Errorf("bit<%s>: got %v, want a 1:18: width error", w, err)
		}
	}
	// A size does not wrap either.
	_, err := Parse("control c() { table t { size = 99999999999999999999; } apply { } }")
	if err == nil || !strings.HasPrefix(err.Error(), "1:32: size") {
		t.Errorf("size = 99999999999999999999: got %v, want a 1:32: size error", err)
	}
}

func TestExprPrecedence(t *testing.T) {
	e, err := ParseExpr("a + b * c == d << 2 & e")
	if err != nil {
		t.Fatal(err)
	}
	// ((a + (b*c)) == ((d << 2) & e)): check the tree shape directly.
	eq, ok := e.(*ast.BinaryExpr)
	if !ok || eq.Op.String() != "==" {
		t.Fatalf("root is %T (%s), want ==", e, ast.PrintExpr(e))
	}
	if l, ok := eq.X.(*ast.BinaryExpr); !ok || l.Op.String() != "+" {
		t.Fatalf("lhs of == is %s", ast.PrintExpr(eq.X))
	}
	if r, ok := eq.Y.(*ast.BinaryExpr); !ok || r.Op.String() != "&" {
		t.Fatalf("rhs of == is %s", ast.PrintExpr(eq.Y))
	}
	// The printed form must re-parse to the same shape.
	e2, err := ParseExpr(ast.PrintExpr(e))
	if err != nil {
		t.Fatal(err)
	}
	if ast.PrintExpr(e2) != ast.PrintExpr(e) {
		t.Fatalf("round trip: %q vs %q", ast.PrintExpr(e2), ast.PrintExpr(e))
	}
}

// shape renders e with every operator node parenthesized and without
// positions: two trees are the same exactly when their shapes are.
func shape(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.Member:
		return shape(x.X) + "." + x.Name
	case *ast.IndexExpr:
		return shape(x.X) + "[" + shape(x.Index) + "]"
	case *ast.CallExpr:
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = shape(a)
		}
		return shape(x.Fun) + "(" + strings.Join(args, ", ") + ")"
	case *ast.IntLit:
		if x.Width > 0 {
			return fmt.Sprintf("%dw%s", x.Width, x.Val)
		}
		return x.Val.String()
	case *ast.UnaryExpr:
		return "(" + x.Op.String() + shape(x.X) + ")"
	case *ast.BinaryExpr:
		return "(" + shape(x.X) + " " + x.Op.String() + " " + shape(x.Y) + ")"
	case *ast.CastExpr:
		// A cast of the empty identifier prints as its type in parentheses.
		return "(" + ast.PrintExpr(&ast.CastExpr{Type: x.Type, X: &ast.Ident{}}) + shape(x.X) + ")"
	case *ast.TernaryExpr:
		return "(" + shape(x.Cond) + " ? " + shape(x.Then) + " : " + shape(x.Else) + ")"
	}
	return ast.PrintExpr(e) // BoolLit, DefaultExpr
}

func mustPredicate(t *testing.T, src string) ast.Expr {
	t.Helper()
	e, err := ParsePredicate(src, token.Pos{Line: 1, Col: 1})
	if err != nil {
		t.Fatalf("ParsePredicate(%q): %v", src, err)
	}
	return e
}

func TestParsePredicatePrecedence(t *testing.T) {
	cases := []struct{ src, want string }{
		{"(a.b == 1 && c.d == 2 || e.f == 3)", "(((a.b == 1) && (c.d == 2)) || (e.f == 3))"},
		// Implication binds loosest and associates right.
		{"(a.b == 1 -> c.d == 2 -> e.f == 3)", "((a.b == 1) -> ((c.d == 2) -> (e.f == 3)))"},
		{"(a -> b || c && d)", "(a -> (b || (c && d)))"},
		{"((a -> b) -> c)", "((a -> b) -> c)"},
		{"(!hit(t) || hit(u))", "((!hit(t)) || hit(u))"},
		// miss() is a call like hit(); the property pass reads it as !hit().
		{"(miss(t))", "miss(t)"},
		{"(a.b + 1 == 2)", "((a.b + 1) == 2)"},
		{"(a.b & 16w0xff == a.b)", "((a.b & 16w255) == a.b)"},
		{"(hdr.ipv4.isValid() -> hdr.ipv4.ttl > 0)", "(hdr.ipv4.isValid() -> (hdr.ipv4.ttl > 0))"},
		{"(action_run(t) != drop_)", "(action_run(t) != drop_)"},
		// -> is admitted inside any parentheses, call arguments included.
		{"(f((a -> b)) == (c -> d))", "(f((a -> b)) == (c -> d))"},
	}
	for _, c := range cases {
		if got := shape(mustPredicate(t, c.src)); got != c.want {
			t.Errorf("ParsePredicate(%q) = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestParsePredicateNumbers(t *testing.T) {
	cases := []struct {
		src   string
		width int
		value int64
	}{
		{"(a.b == 42)", 0, 42},
		{"(a.b == 0x800)", 0, 2048},
		{"(a.b == 16w0x800)", 16, 2048},
		{"(a.b == 9w511)", 9, 511},
	}
	for _, c := range cases {
		e := mustPredicate(t, c.src).(*ast.BinaryExpr)
		lit, ok := e.Y.(*ast.IntLit)
		if !ok {
			t.Fatalf("ParsePredicate(%q): rhs is %T, want *ast.IntLit", c.src, e.Y)
		}
		if lit.Width != c.width || lit.Val.Int64() != c.value {
			t.Errorf("ParsePredicate(%q): got %dw%v, want %dw%d", c.src, lit.Width, lit.Val, c.width, c.value)
		}
	}
}

// TestParsePredicatePositions: positions are offset to the predicate's
// place in its file, and trailing text or a comment is an error there.
func TestParsePredicatePositions(t *testing.T) {
	e, err := ParsePredicate("(a.b == 1)", token.Pos{Line: 4, Col: 9})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Pos(); got != (token.Pos{Line: 4, Col: 14}) {
		t.Errorf("== at %v, want 4:14", got)
	}
	for src, want := range map[string]string{
		"(a.b == 1) trailing": "4:20: ",
		"(a.b == 1) // note":  "4:20: ",
		"(a.b == 1) # note":   "4:20: ",
		"(a.b == 1 /* x */)":  "4:19: ",
		"(a.b == ":            "4:17: ",
	} {
		if _, err := ParsePredicate(src, token.Pos{Line: 4, Col: 9}); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("ParsePredicate(%q): got %v, want an error at %s", src, err, want)
		}
	}
}

// TestArrowOnlyInPredicates: `->` is a token of property predicates; a
// P4 program or expression using it does not parse.
func TestArrowOnlyInPredicates(t *testing.T) {
	src := "control c(inout bit<8> x) { apply { if (x == 1 -> x == 2) { x = 3; } } }"
	if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), "1:48: expected ), found ->") {
		t.Errorf("Parse: got %v, want 1:48: expected ), found ->", err)
	}
	if _, err := ParseExpr("(a -> b)"); err == nil {
		t.Error("ParseExpr admitted ->")
	}
}

func TestTernaryAndCast(t *testing.T) {
	e, err := ParseExpr("(bit<9>)(x ? a : b)")
	if err != nil {
		t.Fatal(err)
	}
	cast, ok := e.(*ast.CastExpr)
	if !ok {
		t.Fatalf("not a cast: %T", e)
	}
	if _, ok := cast.X.(*ast.TernaryExpr); !ok {
		t.Fatalf("cast operand not ternary: %T", cast.X)
	}
}

func TestSwitchStmt(t *testing.T) {
	src := `
control c(inout bit<8> x) {
    action a1() { x = 1; }
    action a2() { x = 2; }
    table t {
        key = { x: exact; }
        actions = { a1; a2; }
    }
    apply {
        switch (t.apply().action_run) {
            a1: { x = 10; }
            a2: { x = 20; }
            default: { x = 30; }
        }
    }
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c := findControl(t, prog, "c")
	sw, ok := c.Apply.Stmts[0].(*ast.SwitchStmt)
	if !ok {
		t.Fatalf("not a switch: %T", c.Apply.Stmts[0])
	}
	if len(sw.Cases) != 3 || sw.Cases[2].Label != "" {
		t.Fatalf("switch cases: %+v", sw.Cases)
	}
	if ast.PathString(sw.Table) != "t" {
		t.Fatalf("switch table: %v", sw.Table)
	}
}

func TestHeaderStacks(t *testing.T) {
	src := `
header vlan_t { bit<16> tci; }
struct headers { vlan_t[4] vlan; }
parser P(packet_in b, out headers hdr) {
    state start {
        b.extract(hdr.vlan.next);
        transition select(hdr.vlan[0].tci) {
            16w1: start;
            default: accept;
        }
    }
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var hs *ast.StructDecl
	for _, d := range prog.Decls {
		if s, ok := d.(*ast.StructDecl); ok && s.Name == "headers" {
			hs = s
		}
	}
	st, ok := hs.Fields[0].Type.(*ast.StackType)
	if !ok || st.Size != 4 {
		t.Fatalf("stack type: %+v", hs.Fields[0].Type)
	}
}

func TestRegisterDecl(t *testing.T) {
	src := `
control c(inout bit<8> x) {
    register<bit<32>>(1024) counts;
    apply {
        counts.write((bit<32>)x, 32w1);
        counts.read(x, (bit<32>)x);
    }
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c := findControl(t, prog, "c")
	reg, ok := c.Locals[0].(*ast.RegisterDecl)
	if !ok || reg.Size != 1024 || reg.Name != "counts" {
		t.Fatalf("register: %+v", c.Locals[0])
	}
}

func TestRoundTripThroughPrinter(t *testing.T) {
	prog, err := Parse(miniNAT)
	if err != nil {
		t.Fatal(err)
	}
	printed := ast.Print(prog)
	prog2, err := Parse(printed)
	if err != nil {
		t.Fatalf("re-parse of printed program failed: %v\n--- printed ---\n%s", err, printed)
	}
	printed2 := ast.Print(prog2)
	if printed != printed2 {
		t.Fatalf("printer not idempotent:\n--- first ---\n%s\n--- second ---\n%s", printed, printed2)
	}
}

func TestErrorRecovery(t *testing.T) {
	src := `
header h1 { bit<8> x; }
header h2 { bit<8> %%%; }
header h3 { bit<8> z; }
`
	prog, err := Parse(src)
	if err == nil {
		t.Fatal("expected parse errors")
	}
	// h1 must still have been parsed despite the error in h2.
	found := false
	for _, d := range prog.Decls {
		if h, ok := d.(*ast.HeaderDecl); ok && h.Name == "h1" {
			found = true
		}
	}
	if !found {
		t.Fatal("h1 lost during error recovery")
	}
	if !strings.Contains(err.Error(), "2") && !strings.Contains(err.Error(), "3") {
		t.Fatalf("error lacks position info: %v", err)
	}
}

func TestAnnotationsSkipped(t *testing.T) {
	src := `
@name("ingress.t") @hidden
header h { bit<8> x; }
control c(inout h hh) {
    @name(".a1") action a1() { hh.x = 1; }
    apply { a1(); }
}
`
	if _, err := Parse(src); err != nil {
		t.Fatalf("annotations must be skipped: %v", err)
	}
}
