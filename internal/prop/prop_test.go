package prop

import (
	"strings"
	"testing"

	"bf4/internal/ir"
	"bf4/internal/p4/parser"
	"bf4/internal/p4/types"
	"bf4/internal/progs"
)

// TestParseErrors: a malformed predicate on a .props line fails with the
// line's file:line:col.
func TestParseErrors(t *testing.T) {
	cases := []string{
		"(a.b == ",            // unclosed
		"(a.b @ 1)",           // bad token
		"(a.b == 1) trailing", // text after the predicate
		"(16w0xzz == a.b)",    // malformed literal
		"(a.b == 0w1)",        // literal width out of range
		"(a.b == 1) // note",  // a comment is text after the predicate too
	}
	for _, src := range cases {
		if _, err := ParseSpecFile("t.props", []byte("\n\n@assert"+src)); err == nil {
			t.Errorf("ParseSpecFile(%q): expected error", src)
		} else if !strings.Contains(err.Error(), "t.props:3:") {
			t.Errorf("ParseSpecFile(%q): error %q lacks a t.props:3:<col> position", src, err)
		}
	}
}

func TestParseSpecFile(t *testing.T) {
	spec := strings.Join([]string{
		"# comment",
		"",
		"@assume(standard_metadata.ingress_port != 9w511)",
		"// another comment",
		"  @assert @after(fwd_0) (standard_metadata.egress_spec != 9w0)",
		"@assert(meta.m.flag != 8w1)",
	}, "\n")
	props, err := ParseSpecFile("x.props", []byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	if len(props) != 3 {
		t.Fatalf("got %d properties, want 3", len(props))
	}
	if props[0].Kind != Assume || props[0].After != "" {
		t.Errorf("props[0] = %+v, want a plain @assume", props[0])
	}
	if props[1].Kind != Assert || props[1].After != "fwd_0" {
		t.Errorf("props[1] = %+v, want @assert @after(fwd_0)", props[1])
	}
	if props[1].Origin() != "x.props:5:3" {
		t.Errorf("props[1].Origin() = %q, want x.props:5:3 (indented line)", props[1].Origin())
	}
	if props[2].Text != "meta.m.flag != 8w1" {
		t.Errorf("props[2].Text = %q, want the predicate without outer parens", props[2].Text)
	}
	if props[0].FromSource || props[1].FromSource {
		t.Error("spec-file properties must not be marked FromSource")
	}
}

func TestParseSpecFileErrors(t *testing.T) {
	cases := []string{
		"@assert meta.m.flag != 1",       // missing parens
		"@assert(a.b == 1) trailing",     // trailing text
		"@check(a.b == 1)",               // unknown keyword
		"@assert @after() (a.b == 1)",    // empty @after
		"@assert @after(t u) (a.b == 1)", // @after wants one name
	}
	for _, line := range cases {
		if _, err := ParseSpecFile("x.props", []byte(line)); err == nil {
			t.Errorf("ParseSpecFile(%q): expected error", line)
		}
	}
}

func TestExtractSource(t *testing.T) {
	src := strings.Join([]string{
		"control C() {",
		"    apply {",
		"        // @assume(hdr.ethernet.etherType != 16w0xBEEF)",
		"        x = 1; // plain comment, no annotation",
		"        // @assert @after(t0) (hit(t0) -> action_run(t0) != drop_)",
		"    }",
		"}",
	}, "\n")
	props, err := ExtractSource("prog.p4", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(props) != 2 {
		t.Fatalf("got %d properties, want 2", len(props))
	}
	for _, pr := range props {
		if !pr.FromSource {
			t.Errorf("%s: source property not marked FromSource", pr.Origin())
		}
	}
	if props[0].Kind != Assume || props[0].Pos.Line != 3 {
		t.Errorf("props[0] = %+v at %s, want @assume on line 3", props[0], props[0].Origin())
	}
	if props[1].After != "t0" || props[1].Pos.Line != 5 {
		t.Errorf("props[1] = %+v at %s, want @after(t0) on line 5", props[1], props[1].Origin())
	}
	// Column points at the '@'.
	if wantCol := strings.Index("        // @assume", "@") + 1; props[0].Pos.Col != wantCol {
		t.Errorf("props[0].Pos.Col = %d, want %d", props[0].Pos.Col, wantCol)
	}

	if _, err := ExtractSource("bad.p4", "// @assert(oops"); err == nil {
		t.Error("malformed source annotation must be a hard error, got nil")
	}
}

func TestSortProperties(t *testing.T) {
	mk := func(file string, line, col int) *Property {
		return &Property{Pos: Pos{File: file, Line: line, Col: col}}
	}
	props := []*Property{mk("b.props", 1, 1), mk("a.props", 9, 1), mk("a.props", 2, 5), mk("a.props", 2, 1)}
	Sort(props)
	want := []string{"a.props:2:1", "a.props:2:5", "a.props:9:1", "b.props:1:1"}
	for i, w := range want {
		if props[i].Origin() != w {
			t.Errorf("Sort[%d] = %s, want %s", i, props[i].Origin(), w)
		}
	}
}

func TestDataVars(t *testing.T) {
	props, err := ParseSpecFile("t.props", []byte("@assert(hdr.ipv4.isValid() && hit(t) -> action_run(t) != drop_ && standard_metadata.egress_spec != 9w0 && hdr.ipv4.ttl > meta.m.guard)"))
	if err != nil {
		t.Fatal(err)
	}
	got := DataVars(props[0].Expr)
	want := []string{"hdr.ipv4.$valid", "hdr.ipv4.ttl", "meta.m.guard", "smeta.egress_spec"}
	if len(got) != len(want) {
		t.Fatalf("DataVars = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DataVars = %v, want %v", got, want)
		}
	}
}

// TestPredicateTerms pins the term each operator and builtin builds,
// against the generated property program. The wanted terms are the ones
// the separate typechecker and compiler this pass replaced built.
func TestPredicateTerms(t *testing.T) {
	src, _ := progs.GeneratePropSwitch(1, 1)
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := types.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ir.Build(prog, info, ir.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ src, want string }{
		{"meta.m.guard > 8w3", "(bvult #x3[8] meta.m.guard)"},
		{"meta.m.guard >= 3", "(bvule #x3[8] meta.m.guard)"},
		{"3 < meta.m.guard", "(bvult #x3[8] meta.m.guard)"},
		{"meta.m.guard <= meta.m.stage", "(bvule meta.m.guard meta.m.stage)"},
		{"meta.m.guard + 1 == 8w2", "(= (bvadd meta.m.guard #x1[8]) #x2[8])"},
		{"meta.m.guard - meta.m.flag != 0", "(not (= (bvsub meta.m.guard meta.m.flag) #x0[8]))"},
		{"(meta.m.guard | 8w1) ^ meta.m.flag & 8w2 == 8w3", "(= (bvxor (bvand meta.m.flag #x2[8]) (bvor meta.m.guard #x1[8])) #x3[8])"},
		{"~meta.m.guard == -meta.m.flag", "(= (bvnot meta.m.guard) (bvneg meta.m.flag))"},
		{"!hit(classify_0) || miss(fwd_0)", "(or (not pcn_classify_0$0.hit) (not pcn_fwd_0$0.hit))"},
		{"hit(classify_0) -> action_run(classify_0) != drop_", "(or (not pcn_classify_0$0.hit) (not (= pcn_classify_0$0.action_run #x2[8])))"},
		{"drop_ == action_run(fwd_0) && hdr.ipv4.isValid()", "(and hdr.ipv4.$valid (= pcn_fwd_0$0.action_run #x1[8]))"},
		{"standard_metadata.egress_spec != 9w0", "(not (= #x0[9] smeta.egress_spec))"},
		{"true && false || meta.m.guard == 8w7", "(= meta.m.guard #x7[8])"},
		{"hdr.ipv4.ttl > 0 -> hdr.ethernet.etherType == 0x800", "(or (= #x800[16] hdr.ethernet.etherType) (not (bvult #x0[8] hdr.ipv4.ttl)))"},
		{"hdr.ipv4.isValid() == !hdr.ethernet.isValid()", "(not (xor hdr.ipv4.$valid (not hdr.ethernet.$valid)))"},
		{"meta.m.scratch + 32w1 - 7 > meta.m.scratch -> meta.m.flag == 255", "(or (= meta.m.flag #xff[8]) (not (bvult meta.m.scratch (bvsub (bvadd meta.m.scratch #x1[32]) #x7[32]))))"},
	}
	for _, c := range cases {
		props, err := ParseSpecFile("t.props", []byte("@assert("+c.src+")"))
		if err != nil {
			t.Fatal(err)
		}
		term, err := (&predicate{p: p, file: "t.props"}).property(props[0])
		if err != nil {
			t.Errorf("%s: %v", c.src, err)
		} else if got := term.String(); got != c.want {
			t.Errorf("%s: built %s, want %s", c.src, got, c.want)
		}
	}
}
