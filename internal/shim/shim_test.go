package shim

import (
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"bf4/internal/dataplane"
	"bf4/internal/driver"
	"bf4/internal/ir"
	"bf4/internal/obs"
	"bf4/internal/spec"
)

const natSrc = `
header ethernet_t { bit<48> dst; bit<48> src; bit<16> etherType; }
header ipv4_t { bit<8> ttl; bit<32> srcAddr; bit<32> dstAddr; }
struct meta_t { bit<1> do_forward; bit<32> nhop; }
struct metadata { meta_t meta; }
struct headers { ethernet_t ethernet; ipv4_t ipv4; }

parser P(packet_in pkt, out headers hdr, inout metadata meta,
         inout standard_metadata_t smeta) {
    state start {
        pkt.extract(hdr.ethernet);
        transition select(hdr.ethernet.etherType) {
            16w0x800: parse_ipv4;
            default: accept;
        }
    }
    state parse_ipv4 { pkt.extract(hdr.ipv4); transition accept; }
}

control Ing(inout headers hdr, inout metadata meta,
            inout standard_metadata_t smeta) {
    action drop_() { mark_to_drop(smeta); }
    action nat_hit(bit<32> a) {
        meta.meta.do_forward = 1w1;
        meta.meta.nhop = a;
    }
    table nat {
        key = { hdr.ipv4.isValid(): exact; hdr.ipv4.srcAddr: ternary; }
        actions = { drop_; nat_hit; }
        default_action = drop_();
    }
    action set_nhop(bit<32> nhop, bit<9> port) {
        meta.meta.nhop = nhop;
        smeta.egress_spec = port;
        hdr.ipv4.ttl = hdr.ipv4.ttl - 1;
    }
    table ipv4_lpm {
        key = { meta.meta.nhop: lpm; }
        actions = { set_nhop; drop_; }
    }
    apply {
        nat.apply();
        if (meta.meta.do_forward == 1w1) {
            ipv4_lpm.apply();
        }
    }
}

control Eg(inout headers hdr, inout metadata meta,
           inout standard_metadata_t smeta) { apply { } }
control Dep(packet_out pkt, in headers hdr) { apply { pkt.emit(hdr.ipv4); } }

V1Switch(P(), Ing(), Eg(), Dep()) main;
`

// buildNATShim runs the full bf4 loop and compiles the final (fixed
// program) assertions into a shim.
func buildNATShim(t *testing.T) (*Shim, *driver.Result, *spec.File) {
	t.Helper()
	res, err := driver.Run("simple_nat", natSrc, driver.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	file := res.Spec()
	// Round-trip through the wire format, as the standalone shim would.
	data, err := file.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := spec.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := New(parsed)
	if err != nil {
		t.Fatal(err)
	}
	return sh, res, parsed
}

func TestShimAcceptsSaneRules(t *testing.T) {
	sh, _, _ := buildNATShim(t)
	// Sane nat rule: valid ipv4 expected.
	err := sh.Apply(&Update{Table: "nat", Entry: &dataplane.Entry{
		Keys:   []dataplane.KeyMatch{dataplane.NewExact(1), dataplane.NewTernary(0x0A000001, -1)},
		Action: "nat_hit",
		Params: []*big.Int{big.NewInt(42)},
	}})
	if err != nil {
		t.Fatalf("sane nat rule rejected: %v", err)
	}
	if sh.ShadowSize("nat") != 1 {
		t.Fatal("shadow not updated")
	}
}

func TestShimRejectsPaperFaultyRule(t *testing.T) {
	sh, _, _ := buildNATShim(t)
	// The paper's rule: ipv4.isValid == 0 with nonzero srcAddr mask.
	err := sh.Apply(&Update{Table: "nat", Entry: &dataplane.Entry{
		Keys:   []dataplane.KeyMatch{dataplane.NewExact(0), dataplane.NewTernary(0x0A000000, 0xFF000000)},
		Action: "nat_hit",
		Params: []*big.Int{big.NewInt(1)},
	}})
	if err == nil {
		t.Fatal("faulty rule accepted")
	}
	if _, ok := err.(*RejectionError); !ok {
		t.Fatalf("error type %T", err)
	}
	if sh.ShadowSize("nat") != 0 {
		t.Fatal("rejected rule entered shadow state")
	}
}

func TestShimRejectsInvalidLpmRule(t *testing.T) {
	sh, res, _ := buildNATShim(t)
	if res.Fixed == nil {
		t.Skip("no fixed pipeline")
	}
	// After Fixes, ipv4_lpm matches on hdr.ipv4.isValid() too. A rule
	// expecting an invalid ipv4 header but running set_nhop (which touches
	// ipv4.ttl) must be rejected.
	err := sh.Apply(&Update{Table: "ipv4_lpm", Entry: &dataplane.Entry{
		Keys:   []dataplane.KeyMatch{dataplane.NewLpm(0, 0), dataplane.NewExact(0)},
		Action: "set_nhop",
		Params: []*big.Int{big.NewInt(1), big.NewInt(7)},
	}})
	if err == nil {
		t.Fatal("lpm rule with invalid-header expectation and set_nhop accepted")
	}
	// The same rule with drop_ is harmless and must pass.
	err = sh.Apply(&Update{Table: "ipv4_lpm", Entry: &dataplane.Entry{
		Keys:   []dataplane.KeyMatch{dataplane.NewLpm(0, 0), dataplane.NewExact(0)},
		Action: "drop_",
	}})
	if err != nil {
		t.Fatalf("harmless drop rule rejected: %v", err)
	}
}

// TestAutofillOffRejectsOldFormat: Fixes changed ipv4_lpm's runtime API
// (paper §5) and nothing fills the new key in for a controller that
// predates it: a rule written against the pre-fix schema is refused.
func TestAutofillOffRejectsOldFormat(t *testing.T) {
	sh, _, _ := buildNATShim(t)
	err := sh.Apply(&Update{Table: "ipv4_lpm", Entry: &dataplane.Entry{
		Keys:   []dataplane.KeyMatch{dataplane.NewLpm(0, 0)},
		Action: "set_nhop",
		Params: []*big.Int{big.NewInt(1), big.NewInt(7)},
	}})
	if err == nil {
		t.Fatal("rule without the synthesized validity key accepted")
	}
}

func TestShimKeyCountValidation(t *testing.T) {
	sh, _, _ := buildNATShim(t)
	err := sh.Apply(&Update{Table: "nat", Entry: &dataplane.Entry{
		Keys:   []dataplane.KeyMatch{dataplane.NewExact(1)},
		Action: "drop_",
	}})
	if err == nil {
		t.Fatal("wrong-arity entry accepted")
	}
}

func TestShimUnknownTable(t *testing.T) {
	sh, _, _ := buildNATShim(t)
	err := sh.Validate(&Update{Table: "nope", Entry: &dataplane.Entry{}})
	if err == nil {
		t.Fatal("unknown table accepted")
	}
}

// TestGlobalCorrectness is the paper's Theorem 7.5: if the shim accepts a
// snapshot, no packet can trigger a bug. We drive the fixed program's
// dataplane with random packets under a shim-accepted snapshot and check
// that no execution ends in a bug node.
func TestGlobalCorrectness(t *testing.T) {
	sh, res, _ := buildNATShim(t)
	pl, _, _ := res.Final()
	rng := rand.New(rand.NewSource(42))

	// Attempt a mix of sane and faulty updates; only accepted ones enter
	// the snapshot.
	accepted, rejected := 0, 0
	for i := 0; i < 60; i++ {
		valid := int64(rng.Intn(2))
		maskChoice := []int64{0, 0xFF000000, -1}[rng.Intn(3)]
		action := []string{"drop_", "nat_hit"}[rng.Intn(2)]
		u := &Update{Table: "nat", Entry: &dataplane.Entry{
			Keys:   []dataplane.KeyMatch{dataplane.NewExact(valid), dataplane.NewTernary(int64(rng.Intn(1<<30)), maskChoice)},
			Action: action,
			Params: []*big.Int{big.NewInt(int64(rng.Intn(1 << 30)))},
		}}
		if action == "drop_" {
			u.Entry.Params = nil
		}
		if err := sh.Apply(u); err != nil {
			rejected++
		} else {
			accepted++
		}
	}
	for i := 0; i < 40; i++ {
		valid := int64(rng.Intn(2))
		action := []string{"drop_", "set_nhop"}[rng.Intn(2)]
		u := &Update{Table: "ipv4_lpm", Entry: &dataplane.Entry{
			Keys:   []dataplane.KeyMatch{dataplane.NewLpm(int64(rng.Intn(1<<30)), rng.Intn(33)), dataplane.NewExact(valid)},
			Action: action,
			Params: []*big.Int{big.NewInt(int64(rng.Intn(1 << 30))), big.NewInt(int64(rng.Intn(500)))},
		}}
		if action == "drop_" {
			u.Entry.Params = nil
		}
		if err := sh.Apply(u); err != nil {
			rejected++
		} else {
			accepted++
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("workload not interesting: accepted=%d rejected=%d", accepted, rejected)
	}

	snap := sh.Snapshot()
	bugs := 0
	for i := 0; i < 500; i++ {
		p := dataplane.Packet{}
		if rng.Intn(2) == 0 {
			p.SetField("hdr.ethernet.etherType", 0x800)
		} else {
			p.SetField("hdr.ethernet.etherType", int64(rng.Intn(1<<16)))
		}
		p.SetField("hdr.ipv4.srcAddr", int64(rng.Intn(1<<30)))
		p.SetField("hdr.ipv4.ttl", int64(rng.Intn(256)))
		interp := &dataplane.Interp{P: pl.IR, Snapshot: snap, Inputs: p}
		tr, err := interp.Run()
		if err != nil {
			t.Fatal(err)
		}
		if tr.Bug() {
			bugs++
			t.Errorf("packet %d triggered %s under shim-accepted snapshot", i, tr.Terminal)
		}
	}
	if bugs > 0 {
		t.Fatalf("%d buggy executions", bugs)
	}
	st := sh.Counters()
	if st.Validated != 100 || st.Rejected != rejected {
		t.Fatalf("stats: %+v", st)
	}
}

// TestShimStatsLatencies: with a registry attached, every validated
// update is one bf4_shim_update_ns observation, and the paper's headline
// (validation in milliseconds) holds on average with a wide margin.
func TestShimStatsLatencies(t *testing.T) {
	sh, _, _ := buildNATShim(t)
	reg := obs.NewRegistry()
	sh.SetObs(reg)
	for i := 0; i < 50; i++ {
		sh.Validate(&Update{Table: "nat", Entry: &dataplane.Entry{
			Keys:   []dataplane.KeyMatch{dataplane.NewExact(1), dataplane.NewTernary(int64(i), -1)},
			Action: "nat_hit",
			Params: []*big.Int{big.NewInt(int64(i))},
		}})
	}
	h := reg.Histogram("bf4_shim_update_ns", nil)
	if h.Count() != 50 {
		t.Fatalf("bf4_shim_update_ns counts %d updates, want 50", h.Count())
	}
	if h.Sum() <= 0 {
		t.Fatalf("bf4_shim_update_ns sums to %dns", h.Sum())
	}
	// Anything under 50ms per update in a test environment is comfortably
	// in line.
	if mean := h.Sum() / h.Count(); mean > 50e6 {
		t.Fatalf("update validation took %dns on average", mean)
	}
}

func TestSpecRenderAndParse(t *testing.T) {
	_, res, file := buildNATShim(t)
	r := file.Render()
	if len(r) == 0 || res == nil {
		t.Fatal("empty render")
	}
	if !slices.ContainsFunc(file.Tables, func(ts *spec.TableSchema) bool { return ts.Name == "nat" }) {
		t.Fatal("nat schema missing")
	}
	if got := len(file.AssertionsFor("nat")); got == 0 {
		t.Fatal("no assertions clustered for nat")
	}
	_ = ir.DropSpec
}
