package types

import (
	"strings"
	"testing"

	"bf4/internal/p4/ast"
	"bf4/internal/p4/parser"
)

func mustParse(t *testing.T, src string) *ast.Program {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return prog
}

const okProgram = `
typedef bit<32> addr_t;
const bit<16> TYPE_IPV4 = 0x800;

header ipv4_t {
    bit<8> ttl;
    addr_t srcAddr;
    addr_t dstAddr;
}

struct metadata { bit<1> do_forward; }
struct headers { ipv4_t ipv4; }

parser P(packet_in pkt, out headers hdr, inout metadata meta,
         inout standard_metadata_t smeta) {
    state start {
        pkt.extract(hdr.ipv4);
        transition accept;
    }
}

control Ing(inout headers hdr, inout metadata meta,
            inout standard_metadata_t smeta) {
    register<bit<32>>(64) regs;
    action set_nhop(addr_t next, bit<9> port) {
        smeta.egress_spec = port;
        hdr.ipv4.ttl = hdr.ipv4.ttl - 1;
        hdr.ipv4.dstAddr = next;
    }
    table lpm {
        key = { hdr.ipv4.dstAddr: lpm; hdr.ipv4.isValid(): exact; }
        actions = { set_nhop; NoAction; }
        default_action = NoAction();
    }
    apply {
        if (hdr.ipv4.isValid() && hdr.ipv4.ttl > 8w0) {
            lpm.apply();
        }
        regs.write((bit<32>)hdr.ipv4.ttl, hdr.ipv4.srcAddr);
    }
}

control Eg(inout headers hdr, inout metadata meta,
           inout standard_metadata_t smeta) { apply { } }
control Dep(packet_out pkt, in headers hdr) {
    apply { pkt.emit(hdr.ipv4); }
}

V1Switch(P(), Ing(), Eg(), Dep()) main;
`

func TestCheckOK(t *testing.T) {
	prog := mustParse(t, okProgram)
	info, err := Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	pl := info.Pipeline
	if pl.Parser == nil || pl.Parser.Name != "P" {
		t.Fatalf("parser not resolved: %+v", pl.Parser)
	}
	if pl.Ingress == nil || pl.Ingress.Name != "Ing" {
		t.Fatalf("ingress not resolved")
	}
	if pl.Egress == nil || pl.Deparser == nil {
		t.Fatalf("egress/deparser not resolved")
	}
}

func TestTypedefResolution(t *testing.T) {
	prog := mustParse(t, okProgram)
	info, err := Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	got := info.ResolveType(&ast.NamedType{Name: "addr_t"})
	bits, ok := got.(*BitsType)
	if !ok || bits.Width != 32 {
		t.Fatalf("addr_t resolved to %s", got)
	}
}

func TestConstEval(t *testing.T) {
	prog := mustParse(t, okProgram)
	info, err := Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	c := info.Consts["TYPE_IPV4"]
	if c == nil || c.Width != 16 {
		t.Fatalf("TYPE_IPV4 = %+v", c)
	}
	if lit, ok := c.Value.(*ast.IntLit); !ok || lit.Val.Int64() != 0x800 {
		t.Fatalf("TYPE_IPV4 initializer = %#v", c.Value)
	}
}

func TestStandardMetadataBuiltin(t *testing.T) {
	prog := mustParse(t, okProgram)
	info, err := Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	smeta := info.Structs["standard_metadata_t"]
	if smeta == nil {
		t.Fatal("standard_metadata_t missing")
	}
	found := false
	for _, f := range smeta.Fields {
		if f.Name == "egress_spec" {
			found = true
			if bt := f.Type.(*ast.BitType); bt.Width != 9 {
				t.Fatalf("egress_spec width %d", bt.Width)
			}
		}
	}
	if !found {
		t.Fatal("egress_spec missing")
	}
}

func errContains(t *testing.T, src, want string) {
	t.Helper()
	prog, perr := parser.Parse(src)
	if perr != nil {
		t.Fatalf("parse: %v", perr)
	}
	_, err := Check(prog)
	if err == nil {
		t.Fatalf("expected error containing %q", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not contain %q", err, want)
	}
}

func TestErrors(t *testing.T) {
	t.Run("unknown type", func(t *testing.T) {
		errContains(t, `header h { nope_t x; }
control c(inout h hh) { apply { } }`, "unknown type")
	})
	t.Run("unknown field", func(t *testing.T) {
		errContains(t, `header h { bit<8> x; }
control c(inout h hh) { apply { hh.y = 8w0; } }`, "no field y")
	})
	t.Run("width mismatch", func(t *testing.T) {
		errContains(t, `header h { bit<8> x; bit<16> y; }
control c(inout h hh) { apply { hh.x = hh.y; } }`, "cannot assign")
	})
	t.Run("non-bool condition", func(t *testing.T) {
		errContains(t, `header h { bit<8> x; }
control c(inout h hh) { apply { if (hh.x + 8w1) { hh.x = 8w0; } } }`, "must be bool")
	})
	t.Run("unknown action in table", func(t *testing.T) {
		errContains(t, `header h { bit<8> x; }
control c(inout h hh) {
  table t { key = { hh.x: exact; } actions = { missing; } }
  apply { t.apply(); } }`, "unknown action")
	})
	t.Run("bad match kind", func(t *testing.T) {
		errContains(t, `header h { bit<8> x; }
control c(inout h hh) {
  action a() { hh.x = 8w0; }
  table t { key = { hh.x: range; } actions = { a; } }
  apply { t.apply(); } }`, "match kind")
	})
	t.Run("action arity", func(t *testing.T) {
		errContains(t, `header h { bit<8> x; }
control c(inout h hh) {
  action a(bit<8> v) { hh.x = v; }
  apply { a(); } }`, "called with 0 args")
	})
	t.Run("undefined name", func(t *testing.T) {
		errContains(t, `header h { bit<8> x; }
control c(inout h hh) { apply { hh.x = nothere; } }`, "undefined")
	})
	t.Run("non-constant const", func(t *testing.T) {
		errContains(t, `const bit<8> C = D;
control c() { apply { } }`, "const C: initializer is not a constant expression")
	})
	t.Run("duplicate const", func(t *testing.T) {
		errContains(t, `const bit<8> C = 8w1;
const bit<8> C = C + 8w1;
control c() { apply { } }`, "duplicate const C")
	})
	t.Run("compare width mismatch", func(t *testing.T) {
		errContains(t, `header h { bit<8> x; bit<16> y; }
control c(inout h hh) { apply { if (hh.x == hh.y) { hh.x = 8w0; } } }`, "cannot compare")
	})
}

func TestExprTypes(t *testing.T) {
	prog := mustParse(t, okProgram)
	info, err := Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	// Find the lpm table keys and verify their types.
	ing := info.Pipeline.Ingress
	sc := info.ScopeOf(ing)
	tbl := sc.Tables["lpm"]
	if tbl == nil {
		t.Fatal("table lpm missing")
	}
	kt := info.TypeOf(tbl.Keys[0].Expr)
	if bits, ok := kt.(*BitsType); !ok || bits.Width != 32 {
		t.Fatalf("dstAddr key type = %s", kt)
	}
	kt2 := info.TypeOf(tbl.Keys[1].Expr)
	if _, ok := kt2.(*BoolT); !ok {
		t.Fatalf("isValid key type = %s", kt2)
	}
}

func TestSwitchCaseValidation(t *testing.T) {
	errContains(t, `header h { bit<8> x; }
control c(inout h hh) {
  action a1() { hh.x = 1; }
  table t { key = { hh.x: exact; } actions = { a1; } }
  apply {
    switch (t.apply().action_run) {
      not_an_action: { hh.x = 2; }
    }
  }
}`, "not an action")
}

func TestHeaderStackTypes(t *testing.T) {
	src := `
header vlan_t { bit<16> tci; }
struct headers { vlan_t[2] vlan; }
control c(inout headers hdr) {
    apply {
        hdr.vlan[0].tci = hdr.vlan[1].tci;
        hdr.vlan[1].tci = 16w5;
    }
}
`
	prog := mustParse(t, src)
	if _, err := Check(prog); err != nil {
		t.Fatalf("check: %v", err)
	}
}

func TestPipelineFallbackWithoutMain(t *testing.T) {
	src := `
header h { bit<8> x; }
struct headers { h hh; }
parser TheParser(packet_in pkt, out headers hdr) {
    state start { pkt.extract(hdr.hh); transition accept; }
}
control MyIngressThing(inout headers hdr) { apply { } }
control MyEgressThing(inout headers hdr) { apply { } }
`
	prog := mustParse(t, src)
	info, err := Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	if info.Pipeline.Parser == nil || info.Pipeline.Parser.Name != "TheParser" {
		t.Fatal("fallback parser resolution failed")
	}
	if info.Pipeline.Ingress == nil || info.Pipeline.Ingress.Name != "MyIngressThing" {
		t.Fatalf("fallback ingress resolution failed: %+v", info.Pipeline.Ingress)
	}
	if info.Pipeline.Egress == nil || info.Pipeline.Egress.Name != "MyEgressThing" {
		t.Fatal("fallback egress resolution failed")
	}
}

func TestSixArgV1Switch(t *testing.T) {
	src := `
header h { bit<8> x; }
struct headers { h hh; }
struct metadata { bit<1> m; }
parser P(packet_in pkt, out headers hdr, inout metadata meta, inout standard_metadata_t sm) {
    state start { transition accept; }
}
control VC(inout headers hdr, inout metadata meta) { apply { } }
control Ing(inout headers hdr, inout metadata meta, inout standard_metadata_t sm) { apply { } }
control Eg(inout headers hdr, inout metadata meta, inout standard_metadata_t sm) { apply { } }
control CC(inout headers hdr, inout metadata meta) { apply { } }
control Dep(packet_out pkt, in headers hdr) { apply { } }
V1Switch(P(), VC(), Ing(), Eg(), CC(), Dep()) main;
`
	prog := mustParse(t, src)
	info, err := Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	pl := info.Pipeline
	if pl.Ingress.Name != "Ing" || pl.Egress.Name != "Eg" || pl.Deparser.Name != "Dep" {
		t.Fatalf("six-arg pipeline wrong: %+v", pl)
	}
	if pl.VerifyChecksum.Name != "VC" || pl.ComputeChecksum.Name != "CC" {
		t.Fatal("checksum controls wrong")
	}
}
