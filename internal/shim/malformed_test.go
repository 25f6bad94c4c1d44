package shim_test

import (
	"bytes"
	"errors"
	"math/big"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bf4/internal/dataplane"
	"bf4/internal/driver"
	"bf4/internal/p4runtime"
	"bf4/internal/progs"
	"bf4/internal/shim"
)

// malformedCase is one shape the boundary check refuses, next to the
// well-formed update it is one field away from. reach (optional) is what
// the packet needs in the tables before the twin's one; the packet then
// matches the twin's entry in table, or with a default twin misses there
// and leaves by egress.
type malformedCase struct {
	name      string
	bad, twin *shim.Update
	reach     []*shim.Update
	egress    int64
}

func bits(n uint) dataplane.Value {
	v, _ := dataplane.FromBig(new(big.Int).Lsh(big.NewInt(1), n))
	return v
}

// natEntry is simple_nat's nat rule for TCP from 10.0.0.1 arriving on an
// external port; edit changes one field of it.
func natEntry(edit func(e *dataplane.Entry)) *shim.Update {
	e := &dataplane.Entry{
		Keys: []dataplane.KeyMatch{dataplane.NewExact(1), dataplane.NewExact(1), dataplane.NewExact(1),
			dataplane.NewTernary(0x0A000001, 0xFFFFFFFF), dataplane.NewTernary(0, 0), dataplane.NewTernary(0, 0), dataplane.NewTernary(0, 0)},
		Action: "nat_hit_ext_to_int",
		Params: []dataplane.Value{dataplane.U64(0x0C000001), dataplane.U64(99)},
	}
	edit(e)
	return &shim.Update{Table: "nat", Entry: e}
}

func lpmEntry(prefixLen int) *shim.Update {
	return &shim.Update{Table: "ipv4_lpm", Entry: &dataplane.Entry{
		Keys:   []dataplane.KeyMatch{dataplane.NewLpm(0x0C000000, prefixLen), dataplane.NewExact(1)},
		Action: "set_nhop",
		Params: []dataplane.Value{dataplane.U64(7), dataplane.U64(3)},
	}}
}

func malformedCases() []malformedCase {
	same := func(*dataplane.Entry) {}
	return []malformedCase{
		{name: "unknown action", twin: natEntry(same),
			bad: natEntry(func(e *dataplane.Entry) { e.Action = "bogus_action" })},
		{name: "over-wide key value", twin: natEntry(same),
			bad: natEntry(func(e *dataplane.Entry) { e.Keys[1].Value = dataplane.U64(3) })}, // 1-bit isValid()
		{name: "over-wide parameter", twin: natEntry(same),
			bad: natEntry(func(e *dataplane.Entry) { e.Params[0] = bits(70) })},
		{name: "too few parameters", twin: natEntry(same),
			bad: natEntry(func(e *dataplane.Entry) { e.Params = nil })},
		{name: "too many parameters", twin: natEntry(same),
			bad: natEntry(func(e *dataplane.Entry) { e.Params = append(e.Params, bits(70)) })},
		{name: "out-of-range mask", twin: natEntry(same),
			bad: natEntry(func(e *dataplane.Entry) { e.Keys[3].Mask = bits(40) })}, // 32-bit key
		{name: "prefix length above the width", twin: lpmEntry(8), bad: lpmEntry(40),
			reach: []*shim.Update{natEntry(same)}},
		{name: "set_default of an unlisted action", egress: 510,
			twin: &shim.Update{Table: "nat", SetDefault: &dataplane.DefaultAction{Action: "nat_miss_int_to_ext"}},
			bad:  &shim.Update{Table: "nat", SetDefault: &dataplane.DefaultAction{Action: "no_such_action"}}},
	}
}

// TestMalformedUpdatesThroughTheChain: an update a P4Runtime target would
// refuse for its shape — not for what the assertions say — is refused by
// the shim at its boundary, with one Reason on every surface and on both
// tiers, and leaves shadow state, snapshot bytes and journal as they
// were; its well-formed twin is admitted, and the concrete interpreter
// over the shim's snapshot matches the packet it was written for. Before
// the check each of these was admitted and journaled: bogus_action bound
// action_run 0 and ran action 0, the 3 was judged as 1 and stored as 3,
// the 2^40 mask judged mod 2^32, the 40-bit prefix clamped to 32, missing
// parameters read as zero and surplus ones were kept.
func TestMalformedUpdatesThroughTheChain(t *testing.T) {
	p := progs.Get("simple_nat")
	res, file := verifyToFile(t, p.Name, p.Source, driver.DefaultConfig())
	pl, _, _ := res.Final()
	external := &shim.Update{Table: "if_info", Entry: &dataplane.Entry{
		Keys: []dataplane.KeyMatch{dataplane.NewExact(2)}, Action: "set_if_info", Params: []dataplane.Value{dataplane.U64(1)}}}
	other := &shim.Update{Table: "if_info", Entry: &dataplane.Entry{
		Keys: []dataplane.KeyMatch{dataplane.NewExact(5)}, Action: "drop_"}}
	pkt := dataplane.Packet{}
	for name, v := range map[string]int64{"smeta.ingress_port": 2, "hdr.ethernet.etherType": 0x800,
		"hdr.ipv4.protocol": 6, "hdr.ipv4.ttl": 64, "hdr.ipv4.srcAddr": 0x0A000001, "hdr.ipv4.dstAddr": 0x0B000001} {
		pkt.SetField(name, v)
	}

	for _, tc := range malformedCases() {
		reasons := map[string]bool{}
		for _, fastpath := range []bool{true, false} {
			name := tc.name + "/slow"
			if fastpath {
				name = tc.name + "/fast"
			}
			t.Run(name, func(t *testing.T) {
				root := t.TempDir()
				fleet := shim.NewFleet(shim.FleetConfig{StateRoot: root, NoSync: true})
				defer fleet.Close()
				sd, err := fleet.AddShard("sw0", file)
				if err != nil {
					t.Fatal(err)
				}
				sh := sd.LiveShim()
				sh.SetFastpath(fastpath)
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				srv := &p4runtime.Server{Fleet: fleet, DefaultSwitch: "sw0"}
				go srv.Serve(ln)
				defer srv.Close()
				client, err := p4runtime.Dial(ln.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				defer client.Close()
				for _, u := range append([]*shim.Update{external}, tc.reach...) {
					if err := sh.Apply(u); err != nil {
						t.Fatalf("set-up rule refused: %v", err)
					}
				}

				state := func() (snapshot, journal []byte, entries int) {
					snapshot, err := sh.MarshalSnapshot()
					if err != nil {
						t.Fatal(err)
					}
					if journal, err = os.ReadFile(filepath.Join(root, "sw0", "journal.bin")); err != nil {
						t.Fatal(err)
					}
					for _, ts := range file.Tables {
						entries += sh.ShadowSize(ts.Name)
					}
					return snapshot, journal, entries
				}
				snap0, journal0, entries0 := state()

				var re *shim.RejectionError
				if err := sh.Validate(tc.bad); !errors.As(err, &re) || re.Assertion != nil || re.Reason == "" {
					t.Fatalf("Validate = %v, want a refusal with a Reason", err)
				}
				reasons[re.Reason] = true
				wire := func(u *shim.Update) p4runtime.BatchOp {
					return p4runtime.BatchOp{Table: u.Table, Entry: u.Entry, Default: u.SetDefault}
				}
				single := func() error { return client.Insert(tc.bad.Table, tc.bad.Entry) }
				if d := tc.bad.SetDefault; d != nil {
					single = func() error { return client.SetDefault(tc.bad.Table, d.Action, d.Params) }
				}
				for surface, refused := range map[string]func() error{
					"Apply": func() error { return sh.Apply(tc.bad) },
					"ApplyBatch": func() error {
						err := sh.ApplyBatch([]*shim.Update{other, tc.bad})
						var be *shim.BatchError
						if !errors.As(err, &be) || be.Index != 1 {
							t.Errorf("ApplyBatch = %v, want update 2/2 reported", err)
						}
						return err
					},
					"wire single": single,
					"wire batch": func() error {
						err := client.WriteBatch([]p4runtime.BatchOp{wire(other), wire(tc.bad)})
						var be *p4runtime.BatchRejectedError
						if !errors.As(err, &be) || be.Index != 1 {
							t.Errorf("wire batch = %v, want failed_index 1", err)
						}
						return err
					},
				} {
					if err := refused(); err == nil || !strings.Contains(err.Error(), re.Reason) {
						t.Errorf("%s = %v, want a refusal saying %q", surface, err, re.Reason)
					}
					if snap, journal, entries := state(); !bytes.Equal(snap, snap0) || !bytes.Equal(journal, journal0) || entries != entries0 {
						t.Errorf("%s changed the state: %d → %d entries, snapshot %d → %d bytes, journal %d → %d bytes",
							surface, entries0, entries, len(snap0), len(snap), len(journal0), len(journal))
					}
				}

				if err := sh.Apply(tc.twin); err != nil {
					t.Fatalf("well-formed twin refused: %v", err)
				}
				tr, err := (&dataplane.Interp{P: pl.IR, Snapshot: sh.Snapshot(), Inputs: pkt}).Run()
				if err != nil {
					t.Fatal(err)
				}
				want := 0 // the twin is its table's only entry
				if tc.twin.Entry == nil {
					want = -1
					if tr.EgressSpec() != tc.egress {
						t.Errorf("packet under the twin's default left by %d, want %d", tr.EgressSpec(), tc.egress)
					}
				}
				matched := false
				for inst, idx := range tr.Matched {
					if inst.Table.Name == tc.twin.Table {
						matched = true
						if idx != want {
							t.Errorf("packet matched entry %d of %s, want %d", idx, tc.twin.Table, want)
						}
					}
				}
				if !matched {
					t.Errorf("packet never reached table %s (ended at %s)", tc.twin.Table, tr.Terminal)
				}
			})
		}
		if len(reasons) != 1 {
			t.Errorf("%s: tiers give different reasons: %v", tc.name, reasons)
		}
	}
}
