package analysis

import (
	"fmt"
	"math/big"
	"slices"
	"strings"
	"testing"

	"bf4/internal/ir"
	"bf4/internal/p4/parser"
	"bf4/internal/p4/types"
	"bf4/internal/smt"
)

// TestTaintOverwriteKills: assigning an untainted value must remove the
// label (strong update), so a tainted-then-cleared variable reads clean.
func TestTaintOverwriteKills(t *testing.T) {
	p := ir.NewProgram("t")
	xs := p.NewVar("x"+ir.TaintSuffix, smt.BV(8))
	a1 := p.NewNode(ir.Assign)
	a1.Var, a1.Expr = xs, p.F.BVConst64(0xff, 8)
	a2 := p.NewNode(ir.Assign)
	a2.Var, a2.Expr = xs, p.F.BVConst64(0, 8)
	exit := p.NewNode(ir.AcceptTerm)
	start := p.NewNode(ir.Nop)
	p.Start = start
	p.Edge(start, a1)
	p.Edge(a1, a2)
	p.Edge(a2, exit)

	fs := SolveForward(p, &taintAnalysis{})
	if out, _ := fs.Out[a2].(iflabels); out["x"] != nil {
		t.Errorf("x still labeled after overwrite: %v", out["x"])
	}
	if mid, _ := fs.Out[a1].(iflabels); mid["x"] == nil {
		t.Error("x unlabeled right after tainting assignment")
	}
}

// TestTaintJoinUnionsMasks: per-bit join — different bits tainted on
// two arms union at the merge.
func TestTaintJoinUnionsMasks(t *testing.T) {
	p := ir.NewProgram("t")
	xs := p.NewVar("x"+ir.TaintSuffix, smt.BV(8))
	c := p.NewVar("c", smt.BoolSort)
	start := p.NewNode(ir.Nop)
	p.Start = start
	br := p.NewNode(ir.Branch)
	br.Expr = c.Term
	thenA := p.NewNode(ir.Assign)
	thenA.Var, thenA.Expr = xs, p.F.BVConst64(0x0f, 8)
	elseA := p.NewNode(ir.Assign)
	elseA.Var, elseA.Expr = xs, p.F.BVConst64(0xf0, 8)
	join := p.NewNode(ir.Nop)
	exit := p.NewNode(ir.AcceptTerm)
	p.Edge(start, br)
	p.Edge(br, thenA)
	p.Edge(br, elseA)
	p.Edge(thenA, join)
	p.Edge(elseA, join)
	p.Edge(join, exit)

	fs := SolveForward(p, &taintAnalysis{})
	out, _ := fs.Out[join].(iflabels)
	if out == nil || out["x"] == nil || out["x"].mask.Cmp(big.NewInt(0xff)) != 0 {
		t.Fatalf("join label = %v, want mask ff", out["x"])
	}
}

// TestEvalTaintUnboundIsPublic: shadow variables of unlabeled bases
// evaluate to zero, so a taint term over clean inputs reads clean.
func TestEvalTaintUnboundIsPublic(t *testing.T) {
	p := ir.NewProgram("t")
	xs := p.NewVar("x"+ir.TaintSuffix, smt.BV(8))
	ys := p.NewVar("y"+ir.TaintSuffix, smt.BV(8))
	term := p.F.BVOr(xs.Term, ys.Term)
	e := iflabels{"x": &label{mask: big.NewInt(0x0c), src: "x"}}
	if got := e.evalTaint(term); got.Cmp(big.NewInt(0x0c)) != 0 {
		t.Errorf("evalTaint = %v, want 0x0c (y unbound reads 0)", got)
	}
	if got := (iflabels{}).evalTaint(term); got.Sign() != 0 {
		t.Errorf("evalTaint over empty labels = %v, want 0", got)
	}
}

// TestFallbackPos: synthesized nodes without positions anchor to the
// nearest positioned predecessor; chains of synthetic nodes walk back.
func TestFallbackPos(t *testing.T) {
	p := ir.NewProgram("t")
	a := p.NewNode(ir.Nop)
	a.Pos.Line, a.Pos.Col = 7, 3
	b := p.NewNode(ir.Nop)
	c := p.NewNode(ir.BugTerm)
	p.Edge(a, b)
	p.Edge(b, c)
	if got := FallbackPos(c); got.Line != 7 || got.Col != 3 {
		t.Errorf("FallbackPos = %d:%d, want 7:3", got.Line, got.Col)
	}
	if got := FallbackPos(a); got.Line != 7 {
		t.Errorf("FallbackPos of positioned node = %d, want its own line 7", got.Line)
	}
	lone := p.NewNode(ir.BugTerm)
	if got := FallbackPos(lone); got.IsValid() {
		t.Errorf("FallbackPos with no positioned ancestor = %v, want invalid", got)
	}
}

// TestTaintTransferEveryNodeKind feeds one node of every ir.NodeKind to
// the label transfer: a kind with no arm panics there. Only a shadow
// assignment may move a label; every other kind is the identity.
func TestTaintTransferEveryNodeKind(t *testing.T) {
	p := ir.NewProgram("t")
	x := p.NewVar("x", smt.BV(8))
	xs := p.NewVar("x"+ir.TaintSuffix, smt.BV(8))
	a := &taintAnalysis{}
	in := iflabels{"y": &label{mask: big.NewInt(1), src: "y"}}
	kinds := 0
	for k := ir.NodeKind(0); k.String() != ""; k++ {
		kinds++
		n := p.NewNode(k)
		n.Var, n.Expr = x, p.F.BVConst64(0xff, 8) // a value write: no label effect
		if out := a.Transfer(n, in).(iflabels); len(out) != 1 || out["y"] != in["y"] {
			t.Errorf("%v: transfer of a non-shadow node changed the labels: %v", k, out)
		}
	}
	if kinds < 10 {
		t.Fatalf("enumerated %d node kinds, want at least the 10 known ones", kinds)
	}
	n := p.NewNode(ir.Assign)
	n.Var, n.Expr = xs, p.F.BVConst64(0xf0, 8)
	out := a.Transfer(n, in).(iflabels)
	if out["x"] == nil || out["x"].mask.Cmp(big.NewInt(0xf0)) != 0 || out["y"] == nil {
		t.Errorf("shadow assignment: labels = %v, want x=f0 and y kept", out)
	}
}

// TestWitnessNamesEveryCopy: a sensitive field copied through 14
// metadata variables into an emitted header field yields a witness that
// names the source, all 14 copies in order, and the sink destination.
func TestWitnessNamesEveryCopy(t *testing.T) {
	const copies = 14
	var fields, body strings.Builder
	prev := "hdr.cred.token"
	var want []string
	want = append(want, prev)
	for i := 1; i <= copies; i++ {
		fmt.Fprintf(&fields, "    bit<32> v%d;\n", i)
		fmt.Fprintf(&body, "        meta.v%d = %s;\n", i, prev)
		prev = fmt.Sprintf("meta.v%d", i)
		want = append(want, prev)
	}
	want = append(want, "hdr.telem.data")
	src := fmt.Sprintf(`
header cred_t { @sensitive bit<32> token; }
header telem_t { bit<32> data; }
struct metadata {
%s}
struct headers { cred_t cred; telem_t telem; }
parser P(packet_in pkt, out headers hdr, inout metadata meta, inout standard_metadata_t smeta) {
    state start { pkt.extract(hdr.cred); transition accept; }
}
control I(inout headers hdr, inout metadata meta, inout standard_metadata_t smeta) {
    apply {
        smeta.egress_spec = 9w1;
        hdr.telem.setValid();
%s        hdr.telem.data = %s;
    }
}
control E(inout headers hdr, inout metadata meta, inout standard_metadata_t smeta) { apply { } }
control D(packet_out pkt, in headers hdr) { apply { pkt.emit(hdr.telem); } }
V1Switch(P(), I(), E(), D()) main;
`, fields.String(), body.String(), prev)
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := types.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	opts := ir.DefaultOptions()
	opts.CheckInfoFlow = true
	p, err := ir.Build(prog, info, opts)
	if err != nil {
		t.Fatal(err)
	}
	res := RunTaint(p)
	if len(res.Alarms) != 1 {
		t.Fatalf("%d alarms, want 1 at the sink", len(res.Alarms))
	}
	if got := res.Alarms[0].Witness; !slices.Equal(got, want) {
		t.Fatalf("witness (%d names) = %v\nwant (%d names) %v", len(got), got, len(want), want)
	}
}
