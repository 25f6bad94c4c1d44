package driver

import (
	"bytes"
	"strings"
	"testing"

	"bf4/internal/progs"
)

// TestFixedSourceRoleInversion: a synthesized key is spelled in its
// control's own parameter names, not the verifier's canonical
// hdr/meta/smeta roles.
func TestFixedSourceRoleInversion(t *testing.T) {
	src := `
header ipv4_t { bit<8> ttl; bit<32> dst; }
struct user_meta { bit<32> nh; }
struct parsed_headers { ipv4_t ipv4; }

parser TheParser(packet_in b, out parsed_headers ph, inout user_meta um,
                 inout standard_metadata_t sm) {
    state start {
        transition select(sm.ingress_port) {
            9w1: parse_ipv4;
            default: accept;
        }
    }
    state parse_ipv4 { b.extract(ph.ipv4); transition accept; }
}

control TheIngress(inout parsed_headers headers_, inout user_meta md,
                   inout standard_metadata_t sm) {
    action drop_() { mark_to_drop(sm); }
    action fwd(bit<9> p) {
        headers_.ipv4.ttl = headers_.ipv4.ttl - 8w1;
        sm.egress_spec = p;
    }
    table route {
        key = { md.nh: exact; }
        actions = { fwd; drop_; }
        default_action = drop_();
    }
    apply { route.apply(); }
}
V1Switch(TheParser(), TheIngress()) main;
`
	res, err := Run("renamed", src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.KeysAdded == 0 {
		t.Fatal("expected a validity key on route")
	}
	if res.FixedSource == "" {
		t.Fatal("no fixed source")
	}
	// The ingress names its headers parameter "headers_": the synthesized
	// key must use that name.
	if !strings.Contains(res.FixedSource, "headers_.ipv4.isValid(): exact;") {
		t.Fatalf("fixed source does not use the control's parameter name:\n%s", res.FixedSource)
	}
	if strings.Contains(res.FixedSource, "hdr.ipv4.isValid()") {
		t.Fatal("canonical role name leaked into the fixed source")
	}
	// And it must verify clean when re-run.
	res2, err := Run("renamed_fixed", res.FixedSource, DefaultConfig())
	if err != nil {
		t.Fatalf("fixed source broken: %v", err)
	}
	if res2.BugsAfterFixes != 0 {
		t.Fatalf("fixed source still buggy: %s", res2.Summary())
	}
}

// TestFixedSourceIsAFixpoint: the program -fixed writes is the program the
// last round verified. Verifying it again proposes nothing, leaves
// uncontrolled exactly what the first run left after its fixes, and yields
// the same annotation file — up to the program's name, the keys' synthesized
// marks (they are written keys now) and the suggestions (there are none).
func TestFixedSourceIsAFixpoint(t *testing.T) {
	type program struct{ name, src string }
	var programs []program
	for _, p := range progs.All() {
		if p.Name != "switch" {
			programs = append(programs, program{p.Name, p.Source})
		}
	}
	programs = append(programs, program{"switch@1", progs.GenerateSwitch(1)}, program{"switch@2", progs.GenerateSwitch(2)})
	fixed := 0
	for _, p := range programs {
		t.Run(p.name, func(t *testing.T) {
			res, err := Run(p.name, p.src, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if res.Fixed == nil {
				return
			}
			fixed++
			again, err := Run(p.name, res.FixedSource, DefaultConfig())
			if err != nil {
				t.Fatalf("fixed source: %v", err)
			}
			if again.Fixed != nil || len(again.Fixes.Keys) > 0 || len(again.Fixes.Special) > 0 {
				t.Errorf("the fixed program wants fixes again:\n%s", again.Fixes.Describe())
			}
			if again.BugsAfterInfer != res.BugsAfterFixes {
				t.Errorf("fixed program: afterInfer=%d, the run that fixed it: afterFixes=%d", again.BugsAfterInfer, res.BugsAfterFixes)
			}
			if a, b := comparableSpec(t, res), comparableSpec(t, again); !bytes.Equal(a, b) {
				t.Errorf("annotation files differ:\n%s\n---\n%s", a, b)
			}
		})
	}
	if fixed == 0 {
		t.Fatal("no program needed a fix: the test compared nothing")
	}
}

// comparableSpec is res's annotation file without what naturally differs
// between a run and the run on its fixed source.
func comparableSpec(t *testing.T, res *Result) []byte {
	t.Helper()
	f := res.Spec()
	f.Program, f.Suggestions = "", nil
	for _, tbl := range f.Tables {
		for i := range tbl.Keys {
			tbl.Keys[i].Synthesized = false
		}
	}
	data, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestUntypableFixIsAnError: a key the fixed program cannot spell fails the
// run instead of being dropped or written. The register index idx decides
// the bug and is a control-local, so Fixes proposes Ing.idx — a name that
// does not type-check inside control Ing.
func TestUntypableFixIsAnError(t *testing.T) {
	const src = `
header h_t { bit<8> f; }
struct metadata { bit<8> m; }
struct headers { h_t h; }
parser P(packet_in pkt, out headers hdr, inout metadata meta, inout standard_metadata_t smeta) {
    state start { pkt.extract(hdr.h); transition accept; }
}
control Ing(inout headers hdr, inout metadata meta, inout standard_metadata_t smeta) {
    bit<8> idx = 8w0;
    register<bit<8>>(16) r;
    action rd() { r.read(meta.m, (bit<32>)idx); smeta.egress_spec = 9w1; }
    table t { key = { meta.m: exact; } actions = { rd; NoAction; } default_action = NoAction(); }
    apply { idx = hdr.h.f; t.apply(); }
}
control Eg(inout headers hdr, inout metadata meta, inout standard_metadata_t smeta) { apply { } }
control Dep(packet_out pkt, in headers hdr) { apply { pkt.emit(hdr.h); } }
V1Switch(P(), Ing(), Eg(), Dep()) main;
`
	res, err := Run("local_index", src, DefaultConfig())
	if err == nil {
		t.Fatalf("Run succeeded (%s) with fixes %v:\n%s", res.Summary(), res.Fixes.Keys, res.FixedSource)
	}
	if want := "rebuild with fixes: apply fixes"; !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "Ing") {
		t.Fatalf("error %q: want it to name the rebuild, the fix and the key", err)
	}
}
