package driver

import (
	"strings"
	"testing"

	"bf4/internal/ir"
	"bf4/internal/progs"
	"bf4/internal/prop"
)

// propRunFixture generates the prop-exercise switch and parses its spec.
func propRunFixture(t *testing.T) (src string, props []*prop.Property) {
	t.Helper()
	src, spec := progs.GeneratePropSwitch(2, 1)
	props, err := prop.ParseSpecFile("propswitch.props", []byte(spec))
	if err != nil {
		t.Fatalf("parse generated spec: %v", err)
	}
	return src, props
}

// TestPropsTypecheckErrors: a property referencing something the program
// doesn't have must fail the run with a positioned error, not silently
// verify nothing. The position is the property's, in its own file: the
// error starts with it, as a compiler's would.
func TestPropsTypecheckErrors(t *testing.T) {
	src, _ := propRunFixture(t)
	cases := []struct{ line, frag string }{
		// A path's error points at its root identifier, not at the '.'
		// where the P4 AST places a member.
		{"@assert(hdr.nosuch.field == 1)", `bad.props:1:9: no field "hdr.nosuch.field"`},
		{"@assert @after(nosuch) (meta.m.guard == 8w7)", "nosuch"},
		{"@assert(hit(nosuch))", "nosuch"},
		{"@assert(action_run(classify_0) == not_an_action)", "not_an_action"},
		{"@assert(meta.m.guard)", "bool"},
		{"@assert(meta.m.guard == meta.m.scratch)", "width"},
		{"@assert(1 == 2)", "width"},
		// Well-formed P4 that the property pass refuses.
		{"@assert(meta.m.guard == 8w1 == 8w2)", "want bit-vectors of one width"},
		{"@assert(hit())", "expected table name in hit(...)"},
		{"@assert((bit<8>)meta.m.flag == 8w0)", "cast is not allowed"},
		{"@assert(meta.m.guard << 1 == 8w0)", "operator << is not allowed"},
		{"@assert(meta.m.guard * 2 == 8w0)", "operator * is not allowed"},
		{"@assert(meta.m.guard == 8w1 ? true : false)", "?: is not allowed"},
		{"@assert(hdr.ipv4[0].ttl == 8w0)", "indexing is not allowed"},
	}
	for _, c := range cases {
		props, err := prop.ParseSpecFile("bad.props", []byte(c.line))
		if err != nil {
			t.Fatalf("ParseSpecFile(%q): unexpected parse error: %v", c.line, err)
		}
		if props, err = GatherProps("propswitch.p4", src, "", props); err != nil {
			t.Fatalf("GatherProps(%q): %v", c.line, err)
		}
		_, err = Props("propswitch.p4", src, props, DefaultConfig())
		if err == nil {
			t.Errorf("Props with %q: expected typecheck error", c.line)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("Props with %q: error %q does not mention %q", c.line, err, c.frag)
		}
		if !strings.HasPrefix(err.Error(), "bad.props:1:") {
			t.Errorf("Props with %q: error %q does not start with the declaration position", c.line, err)
		}
	}
}

// TestPropsAssertInferLoop runs the full verify→infer loop (`bf4
// -check=assert`) on the generated family and pins the inference
// boundary: the action-selection property is violated under arbitrary
// entries but controlled by the inferred annotations, the action-data
// (egress_spec) property stays a dataplane bug, and the gadget/guard
// asserts are unreachable outright.
func TestPropsAssertInferLoop(t *testing.T) {
	src, props := propRunFixture(t)
	cfg := DefaultConfig()
	cfg.IR.Instrument = prop.Instrumenter(props)
	res, err := Run("propswitch.p4", src, cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	checked := map[string]*struct {
		reachable, controlled bool
	}{}
	for _, b := range res.InitialRep.Bugs {
		if b.Kind != ir.BugAssertFail || b.Node.Prop == nil {
			continue
		}
		st := &struct{ reachable, controlled bool }{b.Reachable, res.InferResult.Controlled[b.Node]}
		checked[b.Node.Prop.Text] = st
	}
	if len(checked) != 4 {
		t.Fatalf("got %d distinct assert properties, want 4: %v", len(checked), checked)
	}

	want := map[string]struct{ reachable, controlled bool }{
		"standard_metadata.egress_spec != 9w0":               {true, false},
		"hit(classify_0) -> action_run(classify_0) != drop_": {true, true},
		"meta.m.flag != 8w1":                                 {false, false},
		"meta.m.guard == 8w7":                                {false, false},
	}
	for text, w := range want {
		got, ok := checked[text]
		if !ok {
			t.Errorf("property %q missing from the report", text)
			continue
		}
		if got.reachable != w.reachable || got.controlled != w.controlled {
			t.Errorf("property %q: reachable=%v controlled=%v, want reachable=%v controlled=%v",
				text, got.reachable, got.controlled, w.reachable, w.controlled)
		}
	}
}
