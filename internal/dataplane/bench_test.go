package dataplane_test

import (
	"testing"

	"bf4/internal/core"
	"bf4/internal/dataplane"
	"bf4/internal/ir"
)

func benchPipeline(b *testing.B) *core.Pipeline {
	b.Helper()
	pl, err := core.Compile(natSrcBench, ir.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	return pl
}

const natSrcBench = natSrc // reuse the test program

// BenchmarkInterpreterForwarding measures per-packet execution cost of
// the dataplane simulator on the forwarding fast path.
func BenchmarkInterpreterForwarding(b *testing.B) {
	pl := benchPipeline(b)
	snap := dataplane.NewSnapshot()
	snap.Insert("nat", &dataplane.Entry{
		Keys:   []dataplane.KeyMatch{dataplane.NewExact(1), dataplane.NewTernary(0x0A000001, -1)},
		Action: "nat_hit",
		Params: []dataplane.Value{dataplane.U64(0x0A000099)},
	})
	snap.Insert("ipv4_lpm", &dataplane.Entry{
		Keys:   []dataplane.KeyMatch{dataplane.NewLpm(0, 0)},
		Action: "set_nhop",
		Params: []dataplane.Value{dataplane.U64(0x0A0000FE), dataplane.U64(7)},
	})
	pkt := ipv4Packet(0x0A000001, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		interp := &dataplane.Interp{P: pl.IR, Snapshot: snap, Inputs: pkt}
		tr, err := interp.Run()
		if err != nil {
			b.Fatal(err)
		}
		if tr.Bug() {
			b.Fatal("unexpected bug")
		}
	}
}

// BenchmarkInterpreterMatching isolates table matching against a large
// rule set.
func BenchmarkInterpreterMatching(b *testing.B) {
	pl := benchPipeline(b)
	snap := dataplane.NewSnapshot()
	for i := 0; i < 512; i++ {
		snap.Insert("nat", &dataplane.Entry{
			Keys:   []dataplane.KeyMatch{dataplane.NewExact(1), dataplane.NewTernary(int64(i), -1)},
			Action: "drop_",
		})
	}
	pkt := ipv4Packet(511, 64) // matches the last entry
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		interp := &dataplane.Interp{P: pl.IR, Snapshot: snap, Inputs: pkt}
		if _, err := interp.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
