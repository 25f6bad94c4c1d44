package spec

import (
	"strings"
	"testing"

	"bf4/internal/core"
	"bf4/internal/infer"
	"bf4/internal/ir"
	"bf4/internal/smt"
)

const natSrc = `
header ipv4_t { bit<8> ttl; bit<32> srcAddr; }
struct metadata { bit<1> fwd; }
struct headers { ipv4_t ipv4; }

parser P(packet_in pkt, out headers hdr, inout metadata meta,
         inout standard_metadata_t smeta) {
    state start {
        transition select(smeta.ingress_port) {
            9w1: parse_ipv4;
            default: accept;
        }
    }
    state parse_ipv4 { pkt.extract(hdr.ipv4); transition accept; }
}

control Ing(inout headers hdr, inout metadata meta,
            inout standard_metadata_t smeta) {
    action drop_() { mark_to_drop(smeta); }
    action rewrite(bit<32> a) { hdr.ipv4.srcAddr = a; smeta.egress_spec = 9w2; }
    table nat {
        key = { hdr.ipv4.isValid(): exact; hdr.ipv4.srcAddr: ternary; }
        actions = { rewrite; drop_; }
        default_action = drop_();
    }
    apply { nat.apply(); }
}
V1Switch(P(), Ing()) main;
`

func buildFile(t *testing.T) *File {
	t.Helper()
	pl, err := core.Compile(natSrc, ir.DefaultOptions(), true)
	if err != nil {
		t.Fatal(err)
	}
	rep := pl.FindBugs()
	res := infer.Run(pl, rep, infer.DefaultOptions())
	return Build("nat_prog", pl.IR, rep, res, []string{"a suggestion"})
}

func TestBuildSchema(t *testing.T) {
	f := buildFile(t)
	var ts *TableSchema
	for _, s := range f.Tables {
		if s.Name == "nat" {
			ts = s
		}
	}
	if ts == nil {
		t.Fatal("nat schema missing")
	}
	if len(ts.Keys) != 2 || ts.Keys[0].MatchKind != "exact" || ts.Keys[1].MatchKind != "ternary" {
		t.Fatalf("keys: %+v", ts.Keys)
	}
	if ts.Prefix != "pcn_nat$0" {
		t.Fatalf("prefix = %s", ts.Prefix)
	}
	var rewrite *ActionSchema
	for _, a := range ts.Actions {
		if a.Name == "rewrite" {
			rewrite = a
		}
	}
	if rewrite == nil || len(rewrite.Params) != 1 || rewrite.Params[0].Width != 32 {
		t.Fatalf("rewrite action schema: %+v", rewrite)
	}
	// The rewrite action writes a possibly-invalid header: it must be
	// flagged buggy for the shim's default-rule policy.
	if !rewrite.Buggy {
		t.Fatal("rewrite must be flagged buggy")
	}
}

func TestMarshalParseRoundTrip(t *testing.T) {
	f := buildFile(t)
	data, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	g, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if g.Program != f.Program || len(g.Tables) != len(f.Tables) || len(g.Assertions) != len(f.Assertions) {
		t.Fatalf("round trip lost structure")
	}
	if len(g.Suggestions) != 1 {
		t.Fatal("suggestions lost")
	}
	// Every forbidden condition must re-parse into a term.
	fac := smt.NewFactory()
	for _, a := range g.Assertions {
		for i := range a.Forbidden {
			if _, err := a.ParseForbidden(fac, i); err != nil {
				t.Errorf("ParseForbidden(%d): %v", i, err)
			}
		}
	}
}

func TestRender(t *testing.T) {
	f := buildFile(t)
	r := f.Render()
	for _, want := range []string{"ASSERT ON nat", "FORBID", "WITH", "suggestion"} {
		if !strings.Contains(r, want) {
			t.Errorf("render lacks %q:\n%s", want, r)
		}
	}
}

func TestAssertionsForClustering(t *testing.T) {
	f := buildFile(t)
	if len(f.AssertionsFor("nat")) == 0 {
		t.Fatal("no assertions for nat")
	}
	if len(f.AssertionsFor("nonexistent")) != 0 {
		t.Fatal("assertions leaked to unknown table")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse([]byte("{not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}
