package absdom

import (
	"fmt"
	"math/big"

	"bf4/internal/smt"
)

// Analyzer computes abstract values bottom-up over a term DAG, memoized
// on Term.ID() so shared nodes are transferred exactly once. One Analyzer
// may be reused across many terms of the same factory (the memo then
// spans them, which is exactly what makes analyzing a whole verification
// report cheap). Not safe for concurrent use.
type Analyzer struct {
	memo map[uint32]Value
}

// NewAnalyzer returns an empty analyzer.
func NewAnalyzer() *Analyzer {
	return &Analyzer{memo: make(map[uint32]Value)}
}

// Of returns the abstract value of t, computing and memoizing the values
// of every reachable subterm.
func (a *Analyzer) Of(t *smt.Term) Value {
	if v, ok := a.memo[t.ID()]; ok {
		return v
	}
	// Iterative post-order DFS: conditions from wide corpus programs can
	// be deep enough to threaten the goroutine stack under recursion.
	type frame struct {
		t    *smt.Term
		next int
	}
	stack := []frame{{t: t}}
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		if _, done := a.memo[fr.t.ID()]; done {
			stack = stack[:len(stack)-1]
			continue
		}
		args := fr.t.Args()
		if fr.next < len(args) {
			child := args[fr.next]
			fr.next++
			if _, done := a.memo[child.ID()]; !done {
				stack = append(stack, frame{t: child})
			}
			continue
		}
		a.memo[fr.t.ID()] = transfer(fr.t, a.memo)
		stack = stack[:len(stack)-1]
	}
	return a.memo[t.ID()]
}

// transfer computes one node's abstract value from its (already
// memoized) arguments' values.
func transfer(t *smt.Term, memo map[uint32]Value) Value {
	arg := func(i int) Value { return memo[t.Arg(i).ID()] }
	w := t.Sort().Width
	switch t.Op() {
	case smt.OpTrue:
		return ConstBool(true)
	case smt.OpFalse:
		return ConstBool(false)
	case smt.OpVar:
		if t.Sort().IsBool() {
			return TopBool()
		}
		return TopBV(w)
	case smt.OpConst:
		return ConstBV(t.Const(), w)

	case smt.OpNot:
		x := arg(0)
		return Value{sort: smt.BoolSort, mayT: x.mayF, mayF: x.mayT}
	case smt.OpAnd:
		mayT, mayF := true, false
		for i := range t.Args() {
			x := arg(i)
			mayT = mayT && x.mayT
			mayF = mayF || x.mayF
		}
		return Value{sort: smt.BoolSort, mayT: mayT, mayF: mayF}
	case smt.OpOr:
		mayT, mayF := false, true
		for i := range t.Args() {
			x := arg(i)
			mayT = mayT || x.mayT
			mayF = mayF && x.mayF
		}
		return Value{sort: smt.BoolSort, mayT: mayT, mayF: mayF}
	case smt.OpXor:
		return triXor(arg(0), arg(1))

	case smt.OpIte:
		cond, x, y := arg(0), arg(1), arg(2)
		if val, ok := cond.Decided(); ok {
			if val {
				return x
			}
			return y
		}
		return join(x, y)

	case smt.OpEq:
		return transferEq(arg(0), arg(1))
	case smt.OpUlt:
		return transferUlt(arg(0), arg(1), true)
	case smt.OpUle:
		return transferUlt(arg(0), arg(1), false)
	case smt.OpSlt:
		return transferSlt(arg(0), arg(1), true)
	case smt.OpSle:
		return transferSlt(arg(0), arg(1), false)

	case smt.OpAdd:
		return transferAdd(arg(0), arg(1), w, false)
	case smt.OpSub:
		return transferAdd(arg(0), notBits(arg(1), w), w, true)
	case smt.OpNeg:
		return transferAdd(ConstBV(bigZero, w), notBits(arg(0), w), w, true)
	case smt.OpMul:
		return transferMul(arg(0), arg(1), w)

	case smt.OpBVAnd:
		x, y := arg(0), arg(1)
		return MakeBV(w,
			new(big.Int).Or(x.zeros, y.zeros),
			new(big.Int).And(x.ones, y.ones),
			nil, minBig(x.hi, y.hi))
	case smt.OpBVOr:
		x, y := arg(0), arg(1)
		return MakeBV(w,
			new(big.Int).And(x.zeros, y.zeros),
			new(big.Int).Or(x.ones, y.ones),
			maxBig(x.lo, y.lo), nil)
	case smt.OpBVXor:
		x, y := arg(0), arg(1)
		zeros := new(big.Int).And(x.zeros, y.zeros)
		zeros.Or(zeros, new(big.Int).And(x.ones, y.ones))
		ones := new(big.Int).And(x.zeros, y.ones)
		ones.Or(ones, new(big.Int).And(x.ones, y.zeros))
		return MakeBV(w, zeros, ones, nil, nil)
	case smt.OpBVNot:
		x := notBits(arg(0), w)
		return MakeBV(w, x.zeros, x.ones, x.lo, x.hi)

	case smt.OpShl:
		return transferShl(arg(0), arg(1), w)
	case smt.OpLshr:
		return transferLshr(arg(0), arg(1), w)
	case smt.OpAshr:
		return transferAshr(arg(0), arg(1), w)

	case smt.OpConcat:
		x, y := arg(0), arg(1)
		wy := t.Arg(1).Sort().Width
		sh := func(v *big.Int) *big.Int { return new(big.Int).Lsh(v, uint(wy)) }
		return MakeBV(w,
			new(big.Int).Or(sh(x.zeros), y.zeros),
			new(big.Int).Or(sh(x.ones), y.ones),
			new(big.Int).Add(sh(x.lo), y.lo),
			new(big.Int).Add(sh(x.hi), y.hi))
	case smt.OpExtract:
		hi, lo := t.ExtractBounds()
		x := arg(0)
		m := smt.Mask(hi - lo + 1)
		zeros := new(big.Int).Rsh(x.zeros, uint(lo))
		zeros.And(zeros, m)
		ones := new(big.Int).Rsh(x.ones, uint(lo))
		ones.And(ones, m)
		var ilo, ihi *big.Int
		if lo == 0 && x.hi.Cmp(m) <= 0 {
			ilo, ihi = x.lo, x.hi
		}
		return MakeBV(hi-lo+1, zeros, ones, ilo, ihi)
	case smt.OpZExt:
		x := arg(0)
		wx := t.Arg(0).Sort().Width
		zeros := new(big.Int).Lsh(smt.Mask(w-wx), uint(wx))
		zeros.Or(zeros, x.zeros)
		return MakeBV(w, zeros, x.ones, x.lo, x.hi)
	case smt.OpSExt:
		return transferSExt(arg(0), t.Arg(0).Sort().Width, w)

	default:
		panic(fmt.Sprintf("absdom: unknown op %v", t.Op()))
	}
}

func triXor(x, y Value) Value {
	return Value{
		sort: smt.BoolSort,
		mayT: (x.mayT && y.mayF) || (x.mayF && y.mayT),
		mayF: (x.mayT && y.mayT) || (x.mayF && y.mayF),
	}
}

func minBig(a, b *big.Int) *big.Int {
	if a.Cmp(b) <= 0 {
		return a
	}
	return b
}

func maxBig(a, b *big.Int) *big.Int {
	if a.Cmp(b) >= 0 {
		return a
	}
	return b
}

// notBits returns the bitwise complement of x as a width-w value
// (known bits swap; the interval maps antitonically).
func notBits(x Value, w int) Value {
	m := smt.Mask(w)
	return Value{
		sort:  smt.BV(w),
		zeros: x.ones,
		ones:  x.zeros,
		lo:    new(big.Int).AndNot(m, x.hi),
		hi:    new(big.Int).AndNot(m, x.lo),
	}
}

// transferEq decides bitvector equality where the domains allow: known
// bits that conflict, or disjoint intervals, force false; two equal
// singletons force true.
func transferEq(x, y Value) Value {
	if new(big.Int).And(x.ones, y.zeros).Sign() != 0 ||
		new(big.Int).And(y.ones, x.zeros).Sign() != 0 {
		return ConstBool(false)
	}
	if x.hi.Cmp(y.lo) < 0 || y.hi.Cmp(x.lo) < 0 {
		return ConstBool(false)
	}
	if x.lo.Cmp(x.hi) == 0 && y.lo.Cmp(y.hi) == 0 && x.lo.Cmp(y.lo) == 0 {
		return ConstBool(true)
	}
	return TopBool()
}

// transferUlt handles unsigned < (strict) and <= (!strict).
func transferUlt(x, y Value, strict bool) Value {
	if strict {
		if x.hi.Cmp(y.lo) < 0 {
			return ConstBool(true)
		}
		if x.lo.Cmp(y.hi) >= 0 {
			return ConstBool(false)
		}
	} else {
		if x.hi.Cmp(y.lo) <= 0 {
			return ConstBool(true)
		}
		if x.lo.Cmp(y.hi) > 0 {
			return ConstBool(false)
		}
	}
	return TopBool()
}

// signedBounds maps an unsigned interval of width w to signed bounds.
func signedBounds(x Value, w int) (smin, smax *big.Int) {
	half := new(big.Int).Lsh(bigOne, uint(w-1))
	span := new(big.Int).Lsh(bigOne, uint(w))
	switch {
	case x.hi.Cmp(half) < 0: // entirely non-negative
		return x.lo, x.hi
	case x.lo.Cmp(half) >= 0: // entirely negative
		return new(big.Int).Sub(x.lo, span), new(big.Int).Sub(x.hi, span)
	default: // straddles the sign wrap: only the trivial signed bounds
		return new(big.Int).Neg(half), new(big.Int).Sub(half, bigOne)
	}
}

func transferSlt(x, y Value, strict bool) Value {
	w := x.sort.Width
	xmin, xmax := signedBounds(x, w)
	ymin, ymax := signedBounds(y, w)
	if strict {
		if xmax.Cmp(ymin) < 0 {
			return ConstBool(true)
		}
		if xmin.Cmp(ymax) >= 0 {
			return ConstBool(false)
		}
	} else {
		if xmax.Cmp(ymin) <= 0 {
			return ConstBool(true)
		}
		if xmin.Cmp(ymax) > 0 {
			return ConstBool(false)
		}
	}
	return TopBool()
}

// transferAdd abstracts x + y + cin (mod 2^w): the known-bits component
// is a tristate ripple-carry adder, the interval component the exact sum
// when it cannot wrap (or wraps uniformly). Sub and Neg route through it
// as x + ¬y + 1.
func transferAdd(x, y Value, w int, cin bool) Value {
	// Tristate ripple carry: 0/1 known, 2 unknown.
	const unknown = 2
	bitOf := func(v Value, i int) int {
		switch {
		case v.zeros.Bit(i) == 1:
			return 0
		case v.ones.Bit(i) == 1:
			return 1
		}
		return unknown
	}
	carry := 0
	if cin {
		carry = 1
	}
	zeros, ones := new(big.Int), new(big.Int)
	for i := 0; i < w; i++ {
		a, b := bitOf(x, i), bitOf(y, i)
		if a != unknown && b != unknown && carry != unknown {
			s := a + b + carry
			if s&1 == 1 {
				ones.SetBit(ones, i, 1)
			} else {
				zeros.SetBit(zeros, i, 1)
			}
			carry = s >> 1
			continue
		}
		// Carry-out is known when two inputs are known and equal
		// (majority decided regardless of the third).
		known := []int{}
		for _, v := range [3]int{a, b, carry} {
			if v != unknown {
				known = append(known, v)
			}
		}
		if len(known) == 2 && known[0] == known[1] {
			carry = known[0]
		} else {
			carry = unknown
		}
	}
	// Interval: exact when the concrete sum range stays on one side of
	// the wrap boundary.
	span := new(big.Int).Lsh(bigOne, uint(w))
	add := new(big.Int)
	if cin {
		add = bigOne
	}
	lo := new(big.Int).Add(x.lo, y.lo)
	lo.Add(lo, add)
	hi := new(big.Int).Add(x.hi, y.hi)
	hi.Add(hi, add)
	var ilo, ihi *big.Int
	switch {
	case hi.Cmp(span) < 0:
		ilo, ihi = lo, hi
	case lo.Cmp(span) >= 0:
		ilo, ihi = lo.Sub(lo, span), hi.Sub(hi, span)
	}
	return MakeBV(w, zeros, ones, ilo, ihi)
}

// transferMul abstracts x * y (mod 2^w): the interval is exact when the
// product cannot wrap; the low bits keep the sum of the operands' known
// trailing zeros.
func transferMul(x, y Value, w int) Value {
	span := new(big.Int).Lsh(bigOne, uint(w))
	var ilo, ihi *big.Int
	if p := new(big.Int).Mul(x.hi, y.hi); p.Cmp(span) < 0 {
		ihi = p
		ilo = new(big.Int).Mul(x.lo, y.lo)
	}
	tz := trailingKnownZeros(x, w) + trailingKnownZeros(y, w)
	if tz > w {
		tz = w
	}
	zeros := smt.Mask(tz)
	return MakeBV(w, zeros, nil, ilo, ihi)
}

// trailingKnownZeros counts consecutive known-0 bits from bit 0.
func trailingKnownZeros(x Value, w int) int {
	n := 0
	for n < w && x.zeros.Bit(n) == 1 {
		n++
	}
	return n
}

func transferShl(x, y Value, w int) Value {
	if s, ok := y.Singleton(); ok {
		if s.Cmp(big.NewInt(int64(w))) >= 0 {
			return ConstBV(bigZero, w)
		}
		sh := uint(s.Uint64())
		m := smt.Mask(w)
		zeros := new(big.Int).Lsh(x.zeros, sh)
		zeros.Or(zeros, smt.Mask(int(sh)))
		zeros.And(zeros, m)
		// Bits shifted out of range are irrelevant; bits shifted in are 0.
		ones := new(big.Int).Lsh(x.ones, sh)
		ones.And(ones, m)
		var ilo, ihi *big.Int
		if h := new(big.Int).Lsh(x.hi, sh); h.Cmp(m) <= 0 {
			ilo, ihi = new(big.Int).Lsh(x.lo, sh), h
		}
		return MakeBV(w, zeros, ones, ilo, ihi)
	}
	// Unknown shift: the known minimum shift still forces low zeros (a
	// shift ≥ w yields 0, which also has them).
	minSh := 0
	if y.lo.Cmp(big.NewInt(int64(w))) >= 0 {
		return ConstBV(bigZero, w)
	}
	minSh = int(y.lo.Uint64())
	tz := trailingKnownZeros(x, w) + minSh
	if tz > w {
		tz = w
	}
	return MakeBV(w, smt.Mask(tz), nil, nil, nil)
}

func transferLshr(x, y Value, w int) Value {
	if s, ok := y.Singleton(); ok {
		if s.Cmp(big.NewInt(int64(w))) >= 0 {
			return ConstBV(bigZero, w)
		}
		sh := uint(s.Uint64())
		zeros := new(big.Int).Rsh(x.zeros, sh)
		zeros.Or(zeros, new(big.Int).Lsh(smt.Mask(int(sh)), uint(w)-sh))
		ones := new(big.Int).Rsh(x.ones, sh)
		return MakeBV(w, zeros, ones, new(big.Int).Rsh(x.lo, sh), new(big.Int).Rsh(x.hi, sh))
	}
	// Unknown shift: result never exceeds x, and a shift ≥ w gives 0.
	wBig := big.NewInt(int64(w))
	ihi := new(big.Int).Rsh(x.hi, boundedShift(y.lo, w))
	var ilo *big.Int
	if y.hi.Cmp(wBig) >= 0 {
		ilo = bigZero
	} else {
		ilo = new(big.Int).Rsh(x.lo, uint(y.hi.Uint64()))
	}
	return MakeBV(w, nil, nil, ilo, ihi)
}

func boundedShift(s *big.Int, w int) uint {
	if s.Cmp(big.NewInt(int64(w))) >= 0 {
		return uint(w)
	}
	return uint(s.Uint64())
}

func transferAshr(x, y Value, w int) Value {
	// Sign bit known 0: identical to a logical shift.
	if x.zeros.Bit(w-1) == 1 {
		return transferLshr(x, y, w)
	}
	if s, ok := y.Singleton(); ok {
		sh := boundedShift(s, w)
		zeros, ones := new(big.Int), new(big.Int)
		for i := 0; i < w; i++ {
			src := i + int(sh)
			if src >= w {
				src = w - 1 // sign fill
			}
			if x.zeros.Bit(src) == 1 {
				zeros.SetBit(zeros, i, 1)
			} else if x.ones.Bit(src) == 1 {
				ones.SetBit(ones, i, 1)
			}
		}
		return MakeBV(w, zeros, ones, nil, nil)
	}
	return TopBV(w)
}

func transferSExt(x Value, wx, w int) Value {
	highOnes := new(big.Int).Lsh(smt.Mask(w-wx), uint(wx))
	switch {
	case x.zeros.Bit(wx-1) == 1: // sign known 0: zext
		zeros := new(big.Int).Or(highOnes, x.zeros)
		return MakeBV(w, zeros, x.ones, x.lo, x.hi)
	case x.ones.Bit(wx-1) == 1: // sign known 1: high bits all 1
		ones := new(big.Int).Or(highOnes, x.ones)
		d := new(big.Int).Sub(new(big.Int).Lsh(bigOne, uint(w)), new(big.Int).Lsh(bigOne, uint(wx)))
		return MakeBV(w, x.zeros, ones,
			new(big.Int).Add(x.lo, d), new(big.Int).Add(x.hi, d))
	default:
		// Sign unknown: the low wx-1 bits keep their knowledge; bit wx-1
		// and every extension bit share the (unknown) sign.
		lowKeep := smt.Mask(wx - 1)
		return MakeBV(w,
			new(big.Int).And(x.zeros, lowKeep),
			new(big.Int).And(x.ones, lowKeep), nil, nil)
	}
}
