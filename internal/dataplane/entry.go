package dataplane

import (
	"math/bits"
	"slices"
)

// This file is the rule vocabulary the shim validates, journals and ships:
// table entries and runtime defaults, whose every key, mask and parameter
// is a Value. A value's width is the table schema's, not the value's own,
// so a Value is a plain non-negative integer in 64-bit limbs and nothing
// here imports math/big; the conversions to and from big.Int sit with the
// interpreter (dataplane.go), the one reader that does arithmetic on them.

// Value is a non-negative integer held as little-endian 64-bit limbs: the
// low limb inline, the ones above it, if any, in hi. A value below 2^64
// has hi nil, so building, copying and comparing one allocates nothing.
// hi never ends in a zero limb, which makes the representation unique.
// Values are immutable: hi may be shared between copies.
type Value struct {
	lo uint64
	hi []uint64
}

// U64 returns the value v.
func U64(v uint64) Value { return Value{lo: v} }

// FromLimbs returns the value whose little-endian 64-bit limbs are limbs.
func FromLimbs(limbs []uint64) Value {
	n := len(limbs)
	for n > 1 && limbs[n-1] == 0 {
		n--
	}
	switch n {
	case 0:
		return Value{}
	case 1:
		return Value{lo: limbs[0]}
	}
	return Value{lo: limbs[0], hi: slices.Clone(limbs[1:n])}
}

// FromBytes returns the value of the big-endian magnitude b, as
// big.Int.SetBytes reads it.
func FromBytes(b []byte) Value {
	for len(b) > 0 && b[0] == 0 {
		b = b[1:]
	}
	word := func(b []byte) (w uint64) {
		for _, c := range b {
			w = w<<8 | uint64(c)
		}
		return w
	}
	if len(b) <= 8 {
		return Value{lo: word(b)}
	}
	hi := make([]uint64, (len(b)-1)/8)
	for i := range hi {
		hi[i] = word(b[max(0, len(b)-16-8*i) : len(b)-8-8*i])
	}
	return Value{lo: word(b[len(b)-8:]), hi: hi}
}

// Ones returns the width-w value with every bit set, 2^w - 1.
func Ones(w int) Value { return PrefixMask(w, w) }

// PrefixMask returns the width-w mask of an lpm prefix of length plen
// (plen ≥ 0): the top plen bits set, all w of them when plen ≥ w.
func PrefixMask(w, plen int) Value {
	if w <= 64 {
		return Value{lo: mask64(w) &^ mask64(w-plen)}
	}
	limbs := make([]uint64, (w+63)/64)
	for i := range limbs {
		lo, hi := 64*i, 64*i+64 // the limb's bits, less those outside [w-plen, w)
		limbs[i] = mask64(min(hi, w)-lo) &^ mask64(max(w-plen, lo)-lo)
	}
	return FromLimbs(limbs)
}

// mask64 returns 2^n - 1 for n in [0, 64], and 0 below.
func mask64(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	if n <= 0 {
		return 0
	}
	return 1<<uint(n) - 1
}

// Uint64 returns the low 64 bits of v.
func (v Value) Uint64() uint64 { return v.lo }

// Limb returns v's i-th 64-bit limb, zero past the top.
func (v Value) Limb(i int) uint64 {
	switch {
	case i == 0:
		return v.lo
	case i <= len(v.hi):
		return v.hi[i-1]
	}
	return 0
}

// Limbs returns the number of limbs v needs, at least one.
func (v Value) Limbs() int { return 1 + len(v.hi) }

// BitLen returns the length of v in bits; 0 for zero.
func (v Value) BitLen() int {
	if n := len(v.hi); n > 0 {
		return 64*n + bits.Len64(v.hi[n-1])
	}
	return bits.Len64(v.lo)
}

// IsZero reports whether v is zero.
func (v Value) IsZero() bool { return v.lo == 0 && v.hi == nil }

// Fits reports whether v is a width-w value, below 2^w.
func (v Value) Fits(w int) bool {
	if v.hi == nil && w >= 64 {
		return true
	}
	return v.BitLen() <= w
}

// Equal reports whether v and x are the same value.
func (v Value) Equal(x Value) bool { return v.lo == x.lo && slices.Equal(v.hi, x.hi) }

// AppendBytes appends v's big-endian magnitude, with no leading zero
// byte (none at all for zero), as big.Int.Bytes gives it.
func (v Value) AppendBytes(dst []byte) []byte {
	for i := (v.BitLen()+7)/8 - 1; i >= 0; i-- {
		dst = append(dst, byte(v.Limb(i/8)>>(8*(i%8))))
	}
	return dst
}

// Entry is one concrete table entry.
type Entry struct {
	// Keys holds one match per table key, in key order.
	Keys []KeyMatch
	// Action names the action to run on hit; Params are its arguments.
	Action string
	Params []Value
	// Priority breaks ties for ternary matches (higher wins); insertion
	// order breaks remaining ties.
	Priority int
}

// MaskKind says what a key match's mask is.
type MaskKind uint8

const (
	// NoMask: the match gives none; every bit of the key counts.
	NoMask MaskKind = iota
	// MaskBits: KeyMatch.Mask is the mask.
	MaskBits
	// FullMask: every bit counts, at any width — what the message formats
	// write as the mask -1.
	FullMask
)

// KeyMatch is a concrete match for one key.
type KeyMatch struct {
	Value Value
	// Mask is a ternary match's mask when MaskKind is MaskBits.
	Mask     Value
	MaskKind MaskKind
	// PrefixLen applies to lpm keys (-1 for non-lpm).
	PrefixLen int
}

// NewExact returns an exact key match.
func NewExact(v int64) KeyMatch {
	return KeyMatch{Value: U64(uint64(v)), PrefixLen: -1}
}

// NewTernary returns a ternary key match; a mask of -1 is the full mask.
func NewTernary(v, mask int64) KeyMatch {
	km := KeyMatch{Value: U64(uint64(v)), MaskKind: FullMask, PrefixLen: -1}
	if mask != -1 {
		km.Mask, km.MaskKind = U64(uint64(mask)), MaskBits
	}
	return km
}

// NewLpm returns an lpm key match with the given prefix length.
func NewLpm(v int64, prefixLen int) KeyMatch {
	return KeyMatch{Value: U64(uint64(v)), PrefixLen: prefixLen}
}

// DefaultAction overrides a table's default action at runtime.
type DefaultAction struct {
	Action string
	Params []Value
}
