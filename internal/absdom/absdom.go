// Package absdom is a term-level abstract domain for the QF_BV fragment
// internal/smt works in: every term is mapped to an over-approximation of
// the values it can take under any variable assignment. Two cooperating
// lattices are maintained per bitvector term — known bits (each bit is
// known-0, known-1, or unknown, the "tristate" domain production
// compilers call known-bits) and an unsigned interval [lo, hi] — with a
// reduction step that lets each tighten the other (forced high bits
// narrow the interval; a narrow interval pins the common high-bit prefix).
// Boolean terms get the three-valued lattice {true, false, unknown}.
//
// The analysis is computed bottom-up over the hash-consed term DAG with
// memoization on Term.ID(), so shared subterms are analyzed exactly once
// and analyzing a formula costs one pass over its distinct nodes. Two
// users consult it: internal/analysis's constant propagation folds a term
// the domain decides to a constant (absFold), and internal/ir's taint
// analysis reads which bits of a value are known.
//
// Soundness contract: for every term t and every environment env,
// Eval(t, env) ∈ γ(Of(t)). It is enforced mechanically by exhaustive
// transfer-function enumeration at small widths, by differential fuzzing
// against smt.Eval, and on every subterm of the corpus's verification
// conditions under witness and random environments (see the package
// tests).
package absdom

import (
	"fmt"
	"math/big"

	"bf4/internal/smt"
)

var (
	bigZero = new(big.Int)
	bigOne  = big.NewInt(1)
)

// Value is an abstract value: an over-approximation of the concrete
// values a term may evaluate to. The zero Value is invalid; use the
// constructors. Values are immutable — the big.Int fields must never be
// mutated after construction.
type Value struct {
	sort smt.Sort

	// Boolean terms: mayT/mayF report whether true/false are possible.
	mayT, mayF bool

	// Bitvector terms: known-bits masks (zeros has a 1 where the bit is
	// known 0, ones where it is known 1; zeros∧ones = ∅) and inclusive
	// unsigned bounds lo ≤ hi. Invariant: the set
	// {x | x&zeros = 0, x&ones = ones, lo ≤ x ≤ hi} is non-empty.
	zeros, ones *big.Int
	lo, hi      *big.Int
}

// Sort returns the sort the value abstracts.
func (v Value) Sort() smt.Sort { return v.sort }

// TopBool is the unknown boolean value.
func TopBool() Value { return Value{sort: smt.BoolSort, mayT: true, mayF: true} }

// ConstBool abstracts a single boolean.
func ConstBool(b bool) Value { return Value{sort: smt.BoolSort, mayT: b, mayF: !b} }

// TopBV is the unconstrained bitvector value of width w.
func TopBV(w int) Value {
	return Value{sort: smt.BV(w), zeros: bigZero, ones: bigZero, lo: bigZero, hi: smt.Mask(w)}
}

// ConstBV abstracts the single bitvector value x (which must lie in
// [0, 2^w)).
func ConstBV(x *big.Int, w int) Value {
	z := new(big.Int).AndNot(smt.Mask(w), x)
	return Value{sort: smt.BV(w), zeros: z, ones: x, lo: x, hi: x}
}

// MakeBV builds a reduced bitvector value from known-bit masks and
// unsigned bounds; nil masks/bounds default to the unconstrained ones.
// It panics if the description is contradictory (empty concretization) —
// by construction a sound analysis never produces one.
func MakeBV(w int, zeros, ones, lo, hi *big.Int) Value {
	if zeros == nil {
		zeros = bigZero
	}
	if ones == nil {
		ones = bigZero
	}
	if lo == nil {
		lo = bigZero
	}
	if hi == nil {
		hi = smt.Mask(w)
	}
	v := Value{sort: smt.BV(w), zeros: zeros, ones: ones, lo: lo, hi: hi}
	return v.reduce()
}

// Decided reports whether a boolean value is a single truth value, and
// which.
func (v Value) Decided() (val, ok bool) {
	if !v.sort.IsBool() {
		return false, false
	}
	switch {
	case v.mayT && !v.mayF:
		return true, true
	case v.mayF && !v.mayT:
		return false, true
	}
	return false, false
}

// MayBool reports which truth values are possible (boolean values only).
func (v Value) MayBool() (mayTrue, mayFalse bool) { return v.mayT, v.mayF }

// KnownBits returns the known-bit masks of a bitvector value: zeros has a
// set bit where the term's bit is forced 0, ones where it is forced 1.
// The caller must not mutate the results.
func (v Value) KnownBits() (zeros, ones *big.Int) { return v.zeros, v.ones }

// Bounds returns the inclusive unsigned bounds. The caller must not
// mutate the results.
func (v Value) Bounds() (lo, hi *big.Int) { return v.lo, v.hi }

// Singleton returns the single concrete value of a fully-determined
// bitvector value, or ok=false. The caller must not mutate the result.
func (v Value) Singleton() (x *big.Int, ok bool) {
	if v.sort.IsBool() || v.lo.Cmp(v.hi) != 0 {
		return nil, false
	}
	return v.lo, true
}

// ContainsBV reports x ∈ γ(v) for a bitvector value.
func (v Value) ContainsBV(x *big.Int) bool {
	if v.sort.IsBool() {
		return false
	}
	if new(big.Int).And(x, v.zeros).Sign() != 0 {
		return false
	}
	if new(big.Int).And(x, v.ones).Cmp(v.ones) != 0 {
		return false
	}
	return v.lo.Cmp(x) <= 0 && x.Cmp(v.hi) <= 0
}

// ContainsBool reports b ∈ γ(v) for a boolean value.
func (v Value) ContainsBool(b bool) bool {
	if !v.sort.IsBool() {
		return false
	}
	if b {
		return v.mayT
	}
	return v.mayF
}

// Contains reports whether the concrete evaluation result x (booleans as
// 0/1, the smt.Eval convention) lies in γ(v).
func (v Value) Contains(x *big.Int) bool {
	if v.sort.IsBool() {
		return v.ContainsBool(x.Sign() != 0)
	}
	return v.ContainsBV(x)
}

func (v Value) String() string {
	if v.sort.IsBool() {
		switch {
		case v.mayT && v.mayF:
			return "bool⊤"
		case v.mayT:
			return "true"
		case v.mayF:
			return "false"
		}
		return "bool⊥"
	}
	w := v.sort.Width
	bits := make([]byte, w)
	for i := 0; i < w; i++ {
		switch {
		case v.zeros.Bit(i) == 1:
			bits[w-1-i] = '0'
		case v.ones.Bit(i) == 1:
			bits[w-1-i] = '1'
		default:
			bits[w-1-i] = '?'
		}
	}
	return fmt.Sprintf("{bits=%s, [%s,%s]}", bits, v.lo, v.hi)
}

// join returns the least upper bound of two bitvector values of the same
// sort (the branches of an ite, which the factory only interns over
// bitvectors).
func join(a, b Value) Value {
	if a.sort != b.sort || a.sort.IsBool() {
		panic(fmt.Sprintf("absdom: join of %v and %v", a.sort, b.sort))
	}
	lo := a.lo
	if b.lo.Cmp(lo) < 0 {
		lo = b.lo
	}
	hi := a.hi
	if b.hi.Cmp(hi) > 0 {
		hi = b.hi
	}
	v := Value{
		sort:  a.sort,
		zeros: new(big.Int).And(a.zeros, b.zeros),
		ones:  new(big.Int).And(a.ones, b.ones),
		lo:    lo,
		hi:    hi,
	}
	return v.reduce()
}

// reduce mutually tightens the known-bits and interval components until
// they agree: the bit masks bound the interval (the smallest member has
// every unknown bit 0, the largest every unknown bit 1), and the bounds
// pin the common high-bit prefix of lo and hi. It panics if the value is
// contradictory — a sound transfer function can never produce one.
func (v Value) reduce() Value {
	w := v.sort.Width
	m := smt.Mask(w)
	zeros := new(big.Int).Set(v.zeros)
	ones := new(big.Int).Set(v.ones)
	lo := new(big.Int).Set(v.lo)
	hi := new(big.Int).Set(v.hi)
	for {
		if new(big.Int).And(zeros, ones).Sign() != 0 || lo.Cmp(hi) > 0 {
			panic(fmt.Sprintf("absdom: empty abstraction (soundness bug): %s", Value{sort: v.sort, zeros: zeros, ones: ones, lo: lo, hi: hi}))
		}
		changed := false
		// Bits → interval: unknown = m &^ (zeros|ones); the least member
		// sets only the known ones, the greatest also every unknown bit.
		unknown := new(big.Int).Or(zeros, ones)
		unknown.AndNot(m, unknown)
		bmin := ones
		bmax := new(big.Int).Or(ones, unknown)
		if lo.Cmp(bmin) < 0 {
			lo.Set(bmin)
			changed = true
		}
		if hi.Cmp(bmax) > 0 {
			hi.Set(bmax)
			changed = true
		}
		// Interval → bits: bits above the highest differing bit of lo and
		// hi are equal in every member of [lo, hi].
		diff := new(big.Int).Xor(lo, hi)
		top := diff.BitLen() // bits top..w-1 agree
		for i := top; i < w; i++ {
			if lo.Bit(i) == 1 {
				if ones.Bit(i) == 0 {
					ones.SetBit(ones, i, 1)
					changed = true
				}
			} else if zeros.Bit(i) == 0 {
				zeros.SetBit(zeros, i, 1)
				changed = true
			}
		}
		if !changed {
			return Value{sort: v.sort, zeros: zeros, ones: ones, lo: lo, hi: hi}
		}
	}
}
