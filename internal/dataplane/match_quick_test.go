package dataplane

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bf4/internal/ir"
	"bf4/internal/smt"
)

// refMatch is an independent oracle for single-entry matching.
func refMatch(kind string, width int, keyVal, entryVal, mask int64, plen int) bool {
	switch kind {
	case "exact":
		return keyVal == entryVal
	case "ternary":
		return keyVal&mask == entryVal&mask
	case "lpm":
		m := int64(0)
		for i := 0; i < plen; i++ {
			m |= 1 << (width - 1 - i)
		}
		return keyVal&m == entryVal&m
	}
	return false
}

// TestMatchEntryAgainstOracle drives matchEntry with random single-key
// tables of every match kind against the reference semantics.
func TestMatchEntryAgainstOracle(t *testing.T) {
	kinds := []string{"exact", "ternary", "lpm"}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		kind := kinds[rng.Intn(len(kinds))]
		const width = 8
		tbl := &ir.Table{
			Name: "t",
			Keys: []*ir.KeyInfo{{Path: "k", MatchKind: kind, Width: width}},
		}
		keyVal := int64(rng.Intn(1 << width))
		entryVal := int64(rng.Intn(1 << width))
		mask := int64(rng.Intn(1 << width))
		plen := rng.Intn(width + 1)

		var km KeyMatch
		switch kind {
		case "exact":
			km = NewExact(entryVal)
		case "ternary":
			km = NewTernary(entryVal, mask)
		case "lpm":
			km = NewLpm(entryVal, plen)
		}
		e := &Entry{Keys: []KeyMatch{km}, Action: "a"}
		_, got := matchEntry(tbl, e, []Value{U64(uint64(keyVal))})
		want := refMatch(kind, width, keyVal, entryVal, mask, plen)
		return got == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestLpmScoreOrdersByPrefix: among matching lpm entries, longer prefixes
// must always win regardless of priorities.
func TestLpmScoreOrdersByPrefix(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const width = 16
		tbl := &ir.Table{
			Name: "t",
			Keys: []*ir.KeyInfo{{Path: "k", MatchKind: "lpm", Width: width}},
		}
		keyVal := int64(rng.Intn(1 << width))
		shortLen := rng.Intn(width)
		longLen := shortLen + 1 + rng.Intn(width-shortLen)
		mkEntry := func(plen, prio int) *Entry {
			// Entry value equals the key on the prefix so both match.
			return &Entry{
				Keys:     []KeyMatch{NewLpm(keyVal, plen)},
				Action:   "a",
				Priority: prio,
			}
		}
		short := mkEntry(shortLen, rng.Intn(100))
		long := mkEntry(longLen, rng.Intn(100))
		sShort, ok1 := matchEntry(tbl, short, []Value{U64(uint64(keyVal))})
		sLong, ok2 := matchEntry(tbl, long, []Value{U64(uint64(keyVal))})
		return ok1 && ok2 && sLong > sShort
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestPrefixMaskProperties checks the mask helpers' algebra.
func TestPrefixMaskProperties(t *testing.T) {
	prop := func(w8, p8 uint8) bool {
		w := int(w8) + 1 // one limb and several
		p := int(p8) % (w + 1)
		m := PrefixMask(w, p).Big()
		// The mask has exactly p leading ones within width w.
		ones := 0
		for i := 0; i < w; i++ {
			if m.Bit(i) == 1 {
				ones++
			}
		}
		if ones != p || m.BitLen() > w {
			return false
		}
		// All set bits are the high-order ones.
		for i := w - p; i < w; i++ {
			if m.Bit(i) != 1 {
				return false
			}
		}
		return Ones(w).Big().Cmp(smt.Mask(w)) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
