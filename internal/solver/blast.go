package solver

import (
	"fmt"
	"math/big"

	"bf4/internal/sat"
	"bf4/internal/smt"
)

// The bit-blaster lowers QF_BV terms to CNF over the solver's SAT core by
// Tseitin encoding: boolean structure becomes gates, bitvector operations
// become ripple-carry/borrow/barrel-shifter circuits, and each distinct
// term is blasted once per solver (the smt layer's hash-consing makes
// syntactic duplicates share circuitry). The memos lit and bv are the
// solver's only per-term table.

// The constant true is the positive literal of variable 0: the first thing
// a solver blasts is the variable that holds it, asserted true.
const (
	litTrue  = sat.Lit(0)
	litFalse = litTrue ^ 1
)

// lower returns the literal of boolean term t. The input variables of t
// that no earlier call blasted are numbered first, in the order a
// depth-first walk first meets them, and only then t's gates: the walk
// stops at the nodes already blasted, so it visits each new node once.
func (s *Solver) lower(t *smt.Term) sat.Lit {
	eachVar(t, map[*smt.Term]bool{}, s.blasted, func(v *smt.Term) {
		if v.Sort().IsBool() {
			s.literal(v)
		} else {
			s.bits(v)
		}
	})
	return s.literal(t)
}

// eachVar calls visit on every variable under t in the order a depth-first
// walk first meets it. The walk adds each node it visits to seen and skips
// the nodes already there, and, with everything under them, those stop
// reports (nil: none).
func eachVar(t *smt.Term, seen map[*smt.Term]bool, stop func(*smt.Term) bool, visit func(*smt.Term)) {
	if seen[t] || stop != nil && stop(t) {
		return
	}
	seen[t] = true
	if t.Op() == smt.OpVar {
		visit(t)
		return
	}
	for _, a := range t.Args() {
		eachVar(a, seen, stop, visit)
	}
}

// blasted reports whether t is in the memos.
func (s *Solver) blasted(t *smt.Term) bool {
	var ok bool
	if t.Sort().IsBool() {
		_, ok = s.lit[t]
	} else {
		_, ok = s.bv[t]
	}
	return ok
}

// value reads the last model's value of blasted term t; a boolean reads 0
// or 1.
func (s *Solver) value(t *smt.Term) *big.Int {
	if t.Sort().IsBool() {
		l, ok := s.lit[t]
		if !ok {
			panic(fmt.Sprintf("solver: term not blasted: %s", t))
		}
		if s.sat.ValueLit(l) {
			return big.NewInt(1)
		}
		return big.NewInt(0)
	}
	bs, ok := s.bv[t]
	if !ok {
		panic(fmt.Sprintf("solver: term not blasted: %s", t))
	}
	v := new(big.Int)
	for i, l := range bs {
		if s.sat.ValueLit(l) {
			v.SetBit(v, i, 1)
		}
	}
	return v
}

// freshLit allocates a new SAT variable for an input bit and returns its
// positive literal. Input bits keep the solver's default saved phase,
// false, so models (and the witnesses built from them) stay zero-biased.
func (s *Solver) freshLit() sat.Lit { return sat.MkLit(s.sat.NewVar(), false) }

// literal returns a SAT literal equivalent to the boolean term t,
// introducing Tseitin definitions as needed.
func (s *Solver) literal(t *smt.Term) sat.Lit {
	if !t.Sort().IsBool() {
		panic(fmt.Sprintf("solver: literal of non-boolean term %s", t))
	}
	if l, ok := s.lit[t]; ok {
		return l
	}
	s.start()
	l := s.blastBool(t)
	s.lit[t] = l
	return l
}

// bits returns the LSB-first literal vector for bitvector term t.
func (s *Solver) bits(t *smt.Term) []sat.Lit {
	if t.Sort().IsBool() {
		panic(fmt.Sprintf("solver: bits of boolean term %s", t))
	}
	if bs, ok := s.bv[t]; ok {
		return bs
	}
	s.start()
	bs := s.blastBV(t)
	if len(bs) != t.Sort().Width {
		panic(fmt.Sprintf("solver: width mismatch blasting %s: got %d, want %d", t, len(bs), t.Sort().Width))
	}
	s.bv[t] = bs
	return bs
}

// start makes variable 0, the constant true, before the solver's first
// blasted term.
func (s *Solver) start() {
	if s.sat.NumVars() == 0 {
		s.sat.NewVar()
		s.sat.AddClause(litTrue)
	}
}

func (s *Solver) blastBool(t *smt.Term) sat.Lit {
	switch t.Op() {
	case smt.OpTrue:
		return litTrue
	case smt.OpFalse:
		return litFalse
	case smt.OpVar:
		s.inputs = append(s.inputs, t)
		return s.freshLit()
	case smt.OpNot:
		return s.literal(t.Arg(0)).Neg()
	case smt.OpAnd:
		lits := make([]sat.Lit, len(t.Args()))
		for i, a := range t.Args() {
			lits[i] = s.literal(a)
		}
		return s.mkAnd(lits)
	case smt.OpOr:
		lits := make([]sat.Lit, len(t.Args()))
		for i, a := range t.Args() {
			lits[i] = s.literal(a).Neg()
		}
		return s.mkAnd(lits).Neg()
	case smt.OpXor:
		return s.mkXor(s.literal(t.Arg(0)), s.literal(t.Arg(1)))
	case smt.OpEq:
		return s.mkBVEq(s.bits(t.Arg(0)), s.bits(t.Arg(1)))
	case smt.OpUlt:
		return s.mkULT(s.bits(t.Arg(0)), s.bits(t.Arg(1)))
	case smt.OpUle:
		return s.mkULT(s.bits(t.Arg(1)), s.bits(t.Arg(0))).Neg()
	case smt.OpSlt:
		return s.mkSLT(s.bits(t.Arg(0)), s.bits(t.Arg(1)))
	case smt.OpSle:
		return s.mkSLT(s.bits(t.Arg(1)), s.bits(t.Arg(0))).Neg()
	default:
		panic(fmt.Sprintf("solver: unexpected boolean op %v in %s", t.Op(), t))
	}
}

func (s *Solver) blastBV(t *smt.Term) []sat.Lit {
	w := t.Sort().Width
	switch t.Op() {
	case smt.OpConst:
		bs := make([]sat.Lit, w)
		for i := 0; i < w; i++ {
			if t.Const().Bit(i) == 1 {
				bs[i] = litTrue
			} else {
				bs[i] = litFalse
			}
		}
		return bs
	case smt.OpVar:
		s.inputs = append(s.inputs, t)
		bs := make([]sat.Lit, w)
		for i := range bs {
			bs[i] = s.freshLit()
		}
		return bs
	case smt.OpIte:
		cond := s.literal(t.Arg(0))
		a, b := s.bits(t.Arg(1)), s.bits(t.Arg(2))
		bs := make([]sat.Lit, w)
		for i := range bs {
			bs[i] = s.mkIte(cond, a[i], b[i])
		}
		return bs
	case smt.OpAdd:
		sum, _ := s.mkAdder(s.bits(t.Arg(0)), s.bits(t.Arg(1)), litFalse)
		return sum
	case smt.OpSub:
		b := s.bits(t.Arg(1))
		nb := make([]sat.Lit, len(b))
		for i := range b {
			nb[i] = b[i].Neg()
		}
		sum, _ := s.mkAdder(s.bits(t.Arg(0)), nb, litTrue)
		return sum
	case smt.OpNeg:
		a := s.bits(t.Arg(0))
		na := make([]sat.Lit, len(a))
		for i := range a {
			na[i] = a[i].Neg()
		}
		zero := make([]sat.Lit, len(a))
		for i := range zero {
			zero[i] = litFalse
		}
		// -a = ~a + 1
		one := append([]sat.Lit{litTrue}, zero[1:]...)
		sum, _ := s.mkAdder(na, one, litFalse)
		return sum
	case smt.OpMul:
		return s.mkMul(s.bits(t.Arg(0)), s.bits(t.Arg(1)))
	case smt.OpBVAnd:
		return s.bitwise(t, func(x, y sat.Lit) sat.Lit { return s.mkAnd([]sat.Lit{x, y}) })
	case smt.OpBVOr:
		return s.bitwise(t, func(x, y sat.Lit) sat.Lit {
			return s.mkAnd([]sat.Lit{x.Neg(), y.Neg()}).Neg()
		})
	case smt.OpBVXor:
		return s.bitwise(t, s.mkXor)
	case smt.OpBVNot:
		a := s.bits(t.Arg(0))
		bs := make([]sat.Lit, len(a))
		for i := range a {
			bs[i] = a[i].Neg()
		}
		return bs
	case smt.OpShl:
		return s.mkShift(t, shiftLeft)
	case smt.OpLshr:
		return s.mkShift(t, shiftRightLogical)
	case smt.OpAshr:
		return s.mkShift(t, shiftRightArith)
	case smt.OpConcat:
		hi, lo := s.bits(t.Arg(0)), s.bits(t.Arg(1))
		return append(append([]sat.Lit{}, lo...), hi...)
	case smt.OpExtract:
		hiIdx, loIdx := t.ExtractBounds()
		a := s.bits(t.Arg(0))
		return append([]sat.Lit{}, a[loIdx:hiIdx+1]...)
	case smt.OpZExt:
		a := s.bits(t.Arg(0))
		bs := append([]sat.Lit{}, a...)
		for len(bs) < w {
			bs = append(bs, litFalse)
		}
		return bs
	case smt.OpSExt:
		a := s.bits(t.Arg(0))
		bs := append([]sat.Lit{}, a...)
		signBit := a[len(a)-1]
		for len(bs) < w {
			bs = append(bs, signBit)
		}
		return bs
	default:
		panic(fmt.Sprintf("solver: unexpected bitvector op %v in %s", t.Op(), t))
	}
}

func (s *Solver) bitwise(t *smt.Term, gate func(x, y sat.Lit) sat.Lit) []sat.Lit {
	a, b := s.bits(t.Arg(0)), s.bits(t.Arg(1))
	bs := make([]sat.Lit, len(a))
	for i := range a {
		bs[i] = gate(a[i], b[i])
	}
	return bs
}

// mkAnd returns a literal equivalent to the conjunction of lits.
func (s *Solver) mkAnd(lits []sat.Lit) sat.Lit {
	out := lits[:0:0]
	for _, l := range lits {
		if l == litFalse {
			return litFalse
		}
		if l == litTrue {
			continue
		}
		out = append(out, l)
	}
	switch len(out) {
	case 0:
		return litTrue
	case 1:
		return out[0]
	}
	return s.sat.And(out...)
}

// mkXor returns a literal equivalent to a xor b.
func (s *Solver) mkXor(a, b sat.Lit) sat.Lit {
	switch {
	case a == litFalse:
		return b
	case b == litFalse:
		return a
	case a == litTrue:
		return b.Neg()
	case b == litTrue:
		return a.Neg()
	case a == b:
		return litFalse
	case a == b.Neg():
		return litTrue
	}
	return s.sat.Xor(a, b)
}

// mkIte returns a literal equivalent to cond ? a : b.
func (s *Solver) mkIte(cond, a, b sat.Lit) sat.Lit {
	switch {
	case cond == litTrue:
		return a
	case cond == litFalse:
		return b
	case a == b:
		return a
	case a == litTrue && b == litFalse:
		return cond
	case a == litFalse && b == litTrue:
		return cond.Neg()
	}
	return s.sat.Ite(cond, a, b)
}

// mkMaj returns the majority of three literals (carry-out of a full adder).
func (s *Solver) mkMaj(a, b, d sat.Lit) sat.Lit {
	ab := s.mkAnd([]sat.Lit{a, b})
	ad := s.mkAnd([]sat.Lit{a, d})
	bd := s.mkAnd([]sat.Lit{b, d})
	return s.mkAnd([]sat.Lit{ab.Neg(), ad.Neg(), bd.Neg()}).Neg()
}

// mkAdder returns the ripple-carry sum of a and b with carry-in cin, and
// the final carry-out.
func (s *Solver) mkAdder(a, b []sat.Lit, cin sat.Lit) (sum []sat.Lit, cout sat.Lit) {
	if len(a) != len(b) {
		panic("solver: adder width mismatch")
	}
	sum = make([]sat.Lit, len(a))
	carry := cin
	for i := range a {
		axb := s.mkXor(a[i], b[i])
		sum[i] = s.mkXor(axb, carry)
		carry = s.mkMaj(a[i], b[i], carry)
	}
	return sum, carry
}

// mkMul returns the shift-add product of a and b, truncated to len(a) bits.
func (s *Solver) mkMul(a, b []sat.Lit) []sat.Lit {
	w := len(a)
	acc := make([]sat.Lit, w)
	for i := range acc {
		acc[i] = litFalse
	}
	for i := 0; i < w; i++ {
		if b[i] == litFalse {
			continue
		}
		// addend = (a << i) & b_i, truncated to w bits.
		addend := make([]sat.Lit, w)
		for j := 0; j < w; j++ {
			if j < i {
				addend[j] = litFalse
			} else {
				addend[j] = s.mkAnd([]sat.Lit{a[j-i], b[i]})
			}
		}
		acc, _ = s.mkAdder(acc, addend, litFalse)
	}
	return acc
}

// mkBVEq returns a literal equivalent to bitwise equality of a and b.
func (s *Solver) mkBVEq(a, b []sat.Lit) sat.Lit {
	eqs := make([]sat.Lit, len(a))
	for i := range a {
		eqs[i] = s.mkXor(a[i], b[i]).Neg()
	}
	return s.mkAnd(eqs)
}

// mkULT returns a literal equivalent to unsigned a < b, computed as the
// borrow-out of a - b.
func (s *Solver) mkULT(a, b []sat.Lit) sat.Lit {
	borrow := litFalse
	for i := range a {
		// borrow' = majority(~a, b, borrow)
		borrow = s.mkMaj(a[i].Neg(), b[i], borrow)
	}
	return borrow
}

// mkSLT returns a literal equivalent to signed a < b.
func (s *Solver) mkSLT(a, b []sat.Lit) sat.Lit {
	w := len(a)
	am, bm := a[w-1], b[w-1]
	ult := s.mkULT(a, b)
	// Different signs: a < b iff a is negative. Same signs: unsigned order.
	return s.mkIte(s.mkXor(am, bm), am, ult)
}

type shiftKind int

const (
	shiftLeft shiftKind = iota
	shiftRightLogical
	shiftRightArith
)

// mkShift builds a barrel shifter. Shift amounts >= width produce zero
// (or all-sign for arithmetic right shift), matching smt.Eval semantics.
func (s *Solver) mkShift(t *smt.Term, kind shiftKind) []sat.Lit {
	a := s.bits(t.Arg(0))
	sh := s.bits(t.Arg(1))
	w := len(a)
	fill := func() sat.Lit { return litFalse }
	if kind == shiftRightArith {
		sign := a[w-1]
		fill = func() sat.Lit { return sign }
	}
	cur := append([]sat.Lit{}, a...)
	// Process shift bits that can matter: stage k shifts by 2^k.
	for k := 0; (1 << k) < w; k++ {
		amount := 1 << k
		next := make([]sat.Lit, w)
		for i := 0; i < w; i++ {
			var shifted sat.Lit
			switch kind {
			case shiftLeft:
				if i >= amount {
					shifted = cur[i-amount]
				} else {
					shifted = litFalse
				}
			default:
				if i+amount < w {
					shifted = cur[i+amount]
				} else {
					shifted = fill()
				}
			}
			next[i] = s.mkIte(sh[k], shifted, cur[i])
		}
		cur = next
	}
	// If any shift bit at position >= log2(w) is set, the result saturates.
	var highBits []sat.Lit
	for k := 0; k < len(sh); k++ {
		if 1<<k >= w {
			highBits = append(highBits, sh[k].Neg())
		}
	}
	if len(highBits) > 0 {
		inRange := s.mkAnd(highBits)
		for i := range cur {
			cur[i] = s.mkIte(inRange, cur[i], fill())
		}
	}
	return cur
}
