package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"bf4/internal/dataplane"
	"bf4/internal/shim"
	"bf4/internal/spec"
)

func testSpec() *spec.File {
	return &spec.File{
		Program: "test",
		Tables: []*spec.TableSchema{
			{
				Name:   "nat",
				Prefix: "pcn_nat$0",
				Keys: []spec.KeySchema{
					{Path: "hdr.ipv4.isValid()", MatchKind: "exact", Width: 1},
					{Path: "hdr.ipv4.srcAddr", MatchKind: "ternary", Width: 32},
					{Path: "meta.nhop", MatchKind: "lpm", Width: 32},
				},
				Actions: []*spec.ActionSchema{
					{Name: "drop_", Index: 0},
					{Name: "nat_hit", Index: 1, Params: []spec.ParamSchema{{Name: "a", Width: 32}}},
					{Name: "NoAction", Index: 2},
				},
				Default: "drop_",
			},
			{
				Name:   "quiet",
				Prefix: "pcn_quiet$0",
				Keys:   []spec.KeySchema{{Path: "meta.x", MatchKind: "exact", Width: 8}},
				Actions: []*spec.ActionSchema{
					{Name: "NoAction", Index: 0},
				},
				Default: "NoAction",
			},
		},
		Assertions: []*spec.Assertion{
			{Table: "nat", Source: "fast-infer", Forbidden: []string{"|pcn_nat$0.hit|"},
				Vars: map[string]int{"pcn_nat$0.hit": 0}},
		},
	}
}

func TestDeterminism(t *testing.T) {
	f := testSpec()
	a := NewGenerator(42, f).Updates(50)
	b := NewGenerator(42, f).Updates(50)
	if len(a) != 50 || len(b) != 50 {
		t.Fatalf("lengths: %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Table != b[i].Table || a[i].Entry.Action != b[i].Entry.Action {
			t.Fatalf("update %d differs between same-seed generators", i)
		}
		for j := range a[i].Entry.Keys {
			if !a[i].Entry.Keys[j].Value.Equal(b[i].Entry.Keys[j].Value) {
				t.Fatalf("update %d key %d differs", i, j)
			}
		}
	}
	c := NewGenerator(43, f).Updates(50)
	same := true
	for i := range a {
		if !a[i].Entry.Keys[1].Value.Equal(c[i].Entry.Keys[1].Value) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical workloads")
	}
}

func TestUpdatesTargetAssertionTables(t *testing.T) {
	f := testSpec()
	ups := NewGenerator(1, f).Updates(100)
	for _, u := range ups {
		if u.Table != "nat" {
			t.Fatalf("update targeted %s; only nat carries assertions", u.Table)
		}
	}
}

func TestEntryShape(t *testing.T) {
	f := testSpec()
	ups := NewGenerator(1, f).Updates(200)
	sawFaultyValidity := false
	for _, u := range ups {
		e := u.Entry
		if len(e.Keys) != 3 {
			t.Fatalf("entry has %d keys, want 3", len(e.Keys))
		}
		// Validity key stays in {0,1}.
		v := e.Keys[0].Value.Uint64()
		if v != 0 && v != 1 {
			t.Fatalf("validity key = %d", v)
		}
		if v == 0 {
			sawFaultyValidity = true
		}
		// Ternary key carries a mask; lpm a prefix length.
		if e.Keys[1].MaskKind != dataplane.MaskBits {
			t.Fatal("ternary key lacks mask")
		}
		if e.Keys[2].PrefixLen < 0 || e.Keys[2].PrefixLen > 32 {
			t.Fatalf("lpm prefix = %d", e.Keys[2].PrefixLen)
		}
		// Actions come from the schema, never NoAction when alternatives
		// exist.
		if e.Action == "NoAction" {
			t.Fatal("generator picked NoAction despite alternatives")
		}
		if e.Action == "nat_hit" && len(e.Params) != 1 {
			t.Fatalf("nat_hit with %d params", len(e.Params))
		}
	}
	if !sawFaultyValidity {
		t.Fatal("faulty fraction produced no suspicious entries")
	}
}

func TestWidthsRespected(t *testing.T) {
	f := testSpec()
	ups := NewGenerator(9, f).Updates(100)
	for _, u := range ups {
		if u.Entry.Keys[1].Value.BitLen() > 32 {
			t.Fatalf("32-bit key value has %d bits", u.Entry.Keys[1].Value.BitLen())
		}
		for _, p := range u.Entry.Params {
			if p.BitLen() > 32 {
				t.Fatalf("32-bit param has %d bits", p.BitLen())
			}
		}
	}
}

// TestStreamEncodingPinned: a generator draws the same numbers in the same
// order whatever a value is held as. The shim encoding of the first 64
// updates of two seeds over the width-boundary spec (keys of 1 to 128
// bits, a 128-bit parameter) hashes to what it did when values were
// *big.Int, so a benchmark's update streams encode byte-identically
// across that change.
func TestStreamEncodingPinned(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "shim", "testdata", "golden", "widths.spec.json"))
	if err != nil {
		t.Fatal(err)
	}
	file, err := spec.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	for seed, want := range map[int64]string{
		1: "325bf83cfd8e40986e8ba6d6ecc9013930df43199854d6163542692b7b29de11",
		2: "0b2147c84f575f8572ed7c507850d9df04544d6b792c36f4000131f4da90fb73",
	} {
		var e shim.Encoder
		for _, u := range NewGenerator(seed, file).Updates(64) {
			e.Update(u)
		}
		if sum := sha256.Sum256(e.Buf); e.Err != nil || hex.EncodeToString(sum[:]) != want {
			t.Errorf("seed %d: %d bytes hashing to %x (%v), want %s", seed, len(e.Buf), sum, e.Err, want)
		}
	}
}
