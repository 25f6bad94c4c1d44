// Package bitblast lowers QF_BV terms (internal/smt) to CNF over a CDCL
// SAT solver (internal/sat) using Tseitin encoding. Together with those two
// packages it forms the from-scratch replacement for the Z3 calls the bf4
// paper makes: boolean structure becomes gates, bitvector operations become
// ripple-carry/borrow/barrel-shifter circuits, and each distinct term is
// blasted exactly once per Context (the smt layer's hash-consing guarantees
// syntactic duplicates share circuitry).
package bitblast

import (
	"fmt"
	"maps"
	"math/big"

	"bf4/internal/sat"
	"bf4/internal/smt"
)

// Context owns the term→literal mapping for one SAT solver instance.
// A Context is incremental: terms may be blasted and clauses added across
// multiple Solve calls on the underlying solver.
type Context struct {
	f   *smt.Factory
	s   *sat.Solver
	lit map[*smt.Term]sat.Lit   // boolean terms
	bv  map[*smt.Term][]sat.Lit // bitvector terms, LSB first

	litTrue  sat.Lit
	litFalse sat.Lit
	started  bool
}

// New returns a Context blasting terms from f into s.
func New(f *smt.Factory, s *sat.Solver) *Context {
	return &Context{
		f:   f,
		s:   s,
		lit: make(map[*smt.Term]sat.Lit),
		bv:  make(map[*smt.Term][]sat.Lit),
	}
}

// CopyFrom overwrites c with an independent copy of src over a copy of its
// solver (Solver returns it), reusing c's solver and memo tables where it
// has them: every memoized literal means in the copy what it means in src,
// and blasting into one never shows in the other. The term memos are
// copied; the bit-vector literal slices they point at are never written
// after creation, so the two contexts share them.
func (c *Context) CopyFrom(src *Context) *Context {
	s, lit, bv := c.s, c.lit, c.bv
	if s == nil {
		s, lit, bv = new(sat.Solver), make(map[*smt.Term]sat.Lit, len(src.lit)), make(map[*smt.Term][]sat.Lit, len(src.bv))
	}
	clear(lit)
	clear(bv)
	maps.Copy(lit, src.lit)
	maps.Copy(bv, src.bv)
	*c = *src
	c.s, c.lit, c.bv = s.CopyFrom(src.s), lit, bv
	return c
}

// Reset empties c — solver and memos — for terms of f, keeping what memory
// they hold: c is then what New(f, sat.New()) returns.
func (c *Context) Reset(f *smt.Factory) *Context {
	clear(c.lit)
	clear(c.bv)
	*c = Context{f: f, s: c.s.Reset(), lit: c.lit, bv: c.bv}
	return c
}

func (c *Context) ensureConsts() {
	if c.started {
		return
	}
	c.started = true
	v := c.s.NewVar()
	c.litTrue = sat.MkLit(v, false)
	c.litFalse = c.litTrue.Neg()
	c.s.AddClause(c.litTrue)
}

// Solver returns the underlying SAT solver.
func (c *Context) Solver() *sat.Solver { return c.s }

// freshLit allocates a new SAT variable for an input bit and returns its
// positive literal. Input bits keep the solver's default saved phase,
// false, so models (and the witnesses built from them) stay zero-biased.
func (c *Context) freshLit() sat.Lit { return sat.MkLit(c.s.NewVar(), false) }

// Literal returns a SAT literal equivalent to the boolean term t,
// introducing Tseitin definitions as needed.
func (c *Context) Literal(t *smt.Term) sat.Lit {
	c.ensureConsts()
	if !t.Sort().IsBool() {
		panic(fmt.Sprintf("bitblast: Literal on non-boolean term %s", t))
	}
	if l, ok := c.lit[t]; ok {
		return l
	}
	l := c.blastBool(t)
	c.lit[t] = l
	return l
}

// AssertTrue constrains t to hold in every model.
func (c *Context) AssertTrue(t *smt.Term) {
	c.s.AddClause(c.Literal(t))
}

func (c *Context) blastBool(t *smt.Term) sat.Lit {
	switch t.Op() {
	case smt.OpTrue:
		return c.litTrue
	case smt.OpFalse:
		return c.litFalse
	case smt.OpVar:
		return c.freshLit()
	case smt.OpNot:
		return c.Literal(t.Arg(0)).Neg()
	case smt.OpAnd:
		lits := make([]sat.Lit, len(t.Args()))
		for i, a := range t.Args() {
			lits[i] = c.Literal(a)
		}
		return c.mkAnd(lits)
	case smt.OpOr:
		lits := make([]sat.Lit, len(t.Args()))
		for i, a := range t.Args() {
			lits[i] = c.Literal(a).Neg()
		}
		return c.mkAnd(lits).Neg()
	case smt.OpXor:
		return c.mkXor(c.Literal(t.Arg(0)), c.Literal(t.Arg(1)))
	case smt.OpEq:
		return c.mkBVEq(c.Bits(t.Arg(0)), c.Bits(t.Arg(1)))
	case smt.OpUlt:
		return c.mkULT(c.Bits(t.Arg(0)), c.Bits(t.Arg(1)))
	case smt.OpUle:
		return c.mkULT(c.Bits(t.Arg(1)), c.Bits(t.Arg(0))).Neg()
	case smt.OpSlt:
		return c.mkSLT(c.Bits(t.Arg(0)), c.Bits(t.Arg(1)))
	case smt.OpSle:
		return c.mkSLT(c.Bits(t.Arg(1)), c.Bits(t.Arg(0))).Neg()
	default:
		panic(fmt.Sprintf("bitblast: unexpected boolean op %v in %s", t.Op(), t))
	}
}

// Bits returns the LSB-first literal vector for bitvector term t.
func (c *Context) Bits(t *smt.Term) []sat.Lit {
	c.ensureConsts()
	if t.Sort().IsBool() {
		panic(fmt.Sprintf("bitblast: Bits on boolean term %s", t))
	}
	if bs, ok := c.bv[t]; ok {
		return bs
	}
	bs := c.blastBV(t)
	if len(bs) != t.Sort().Width {
		panic(fmt.Sprintf("bitblast: width mismatch blasting %s: got %d, want %d", t, len(bs), t.Sort().Width))
	}
	c.bv[t] = bs
	return bs
}

func (c *Context) blastBV(t *smt.Term) []sat.Lit {
	w := t.Sort().Width
	switch t.Op() {
	case smt.OpConst:
		bs := make([]sat.Lit, w)
		for i := 0; i < w; i++ {
			if t.Const().Bit(i) == 1 {
				bs[i] = c.litTrue
			} else {
				bs[i] = c.litFalse
			}
		}
		return bs
	case smt.OpVar:
		bs := make([]sat.Lit, w)
		for i := range bs {
			bs[i] = c.freshLit()
		}
		return bs
	case smt.OpIte:
		cond := c.Literal(t.Arg(0))
		a, b := c.Bits(t.Arg(1)), c.Bits(t.Arg(2))
		bs := make([]sat.Lit, w)
		for i := range bs {
			bs[i] = c.mkIte(cond, a[i], b[i])
		}
		return bs
	case smt.OpAdd:
		s, _ := c.mkAdder(c.Bits(t.Arg(0)), c.Bits(t.Arg(1)), c.litFalse)
		return s
	case smt.OpSub:
		b := c.Bits(t.Arg(1))
		nb := make([]sat.Lit, len(b))
		for i := range b {
			nb[i] = b[i].Neg()
		}
		s, _ := c.mkAdder(c.Bits(t.Arg(0)), nb, c.litTrue)
		return s
	case smt.OpNeg:
		a := c.Bits(t.Arg(0))
		na := make([]sat.Lit, len(a))
		for i := range a {
			na[i] = a[i].Neg()
		}
		zero := make([]sat.Lit, len(a))
		for i := range zero {
			zero[i] = c.litFalse
		}
		// -a = ~a + 1
		one := append([]sat.Lit{c.litTrue}, zero[1:]...)
		s, _ := c.mkAdder(na, one, c.litFalse)
		return s
	case smt.OpMul:
		return c.mkMul(c.Bits(t.Arg(0)), c.Bits(t.Arg(1)))
	case smt.OpBVAnd:
		return c.bitwise(t, func(x, y sat.Lit) sat.Lit { return c.mkAnd([]sat.Lit{x, y}) })
	case smt.OpBVOr:
		return c.bitwise(t, func(x, y sat.Lit) sat.Lit {
			return c.mkAnd([]sat.Lit{x.Neg(), y.Neg()}).Neg()
		})
	case smt.OpBVXor:
		return c.bitwise(t, c.mkXor)
	case smt.OpBVNot:
		a := c.Bits(t.Arg(0))
		bs := make([]sat.Lit, len(a))
		for i := range a {
			bs[i] = a[i].Neg()
		}
		return bs
	case smt.OpShl:
		return c.mkShift(t, shiftLeft)
	case smt.OpLshr:
		return c.mkShift(t, shiftRightLogical)
	case smt.OpAshr:
		return c.mkShift(t, shiftRightArith)
	case smt.OpConcat:
		hi, lo := c.Bits(t.Arg(0)), c.Bits(t.Arg(1))
		return append(append([]sat.Lit{}, lo...), hi...)
	case smt.OpExtract:
		hiIdx, loIdx := t.ExtractBounds()
		a := c.Bits(t.Arg(0))
		return append([]sat.Lit{}, a[loIdx:hiIdx+1]...)
	case smt.OpZExt:
		a := c.Bits(t.Arg(0))
		bs := append([]sat.Lit{}, a...)
		for len(bs) < w {
			bs = append(bs, c.litFalse)
		}
		return bs
	case smt.OpSExt:
		a := c.Bits(t.Arg(0))
		bs := append([]sat.Lit{}, a...)
		signBit := a[len(a)-1]
		for len(bs) < w {
			bs = append(bs, signBit)
		}
		return bs
	default:
		panic(fmt.Sprintf("bitblast: unexpected bitvector op %v in %s", t.Op(), t))
	}
}

func (c *Context) bitwise(t *smt.Term, gate func(x, y sat.Lit) sat.Lit) []sat.Lit {
	a, b := c.Bits(t.Arg(0)), c.Bits(t.Arg(1))
	bs := make([]sat.Lit, len(a))
	for i := range a {
		bs[i] = gate(a[i], b[i])
	}
	return bs
}

// mkAnd returns a literal equivalent to the conjunction of lits.
func (c *Context) mkAnd(lits []sat.Lit) sat.Lit {
	out := lits[:0:0]
	for _, l := range lits {
		if l == c.litFalse {
			return c.litFalse
		}
		if l == c.litTrue {
			continue
		}
		out = append(out, l)
	}
	switch len(out) {
	case 0:
		return c.litTrue
	case 1:
		return out[0]
	}
	return c.s.And(out...)
}

// mkXor returns a literal equivalent to a xor b.
func (c *Context) mkXor(a, b sat.Lit) sat.Lit {
	switch {
	case a == c.litFalse:
		return b
	case b == c.litFalse:
		return a
	case a == c.litTrue:
		return b.Neg()
	case b == c.litTrue:
		return a.Neg()
	case a == b:
		return c.litFalse
	case a == b.Neg():
		return c.litTrue
	}
	return c.s.Xor(a, b)
}

// mkIte returns a literal equivalent to cond ? a : b.
func (c *Context) mkIte(cond, a, b sat.Lit) sat.Lit {
	switch {
	case cond == c.litTrue:
		return a
	case cond == c.litFalse:
		return b
	case a == b:
		return a
	case a == c.litTrue && b == c.litFalse:
		return cond
	case a == c.litFalse && b == c.litTrue:
		return cond.Neg()
	}
	return c.s.Ite(cond, a, b)
}

// mkMaj returns the majority of three literals (carry-out of a full adder).
func (c *Context) mkMaj(a, b, d sat.Lit) sat.Lit {
	ab := c.mkAnd([]sat.Lit{a, b})
	ad := c.mkAnd([]sat.Lit{a, d})
	bd := c.mkAnd([]sat.Lit{b, d})
	return c.mkAnd([]sat.Lit{ab.Neg(), ad.Neg(), bd.Neg()}).Neg()
}

// mkAdder returns the ripple-carry sum of a and b with carry-in cin, and
// the final carry-out.
func (c *Context) mkAdder(a, b []sat.Lit, cin sat.Lit) (sum []sat.Lit, cout sat.Lit) {
	if len(a) != len(b) {
		panic("bitblast: adder width mismatch")
	}
	sum = make([]sat.Lit, len(a))
	carry := cin
	for i := range a {
		axb := c.mkXor(a[i], b[i])
		sum[i] = c.mkXor(axb, carry)
		carry = c.mkMaj(a[i], b[i], carry)
	}
	return sum, carry
}

// mkMul returns the shift-add product of a and b, truncated to len(a) bits.
func (c *Context) mkMul(a, b []sat.Lit) []sat.Lit {
	w := len(a)
	acc := make([]sat.Lit, w)
	for i := range acc {
		acc[i] = c.litFalse
	}
	for i := 0; i < w; i++ {
		if b[i] == c.litFalse {
			continue
		}
		// addend = (a << i) & b_i, truncated to w bits.
		addend := make([]sat.Lit, w)
		for j := 0; j < w; j++ {
			if j < i {
				addend[j] = c.litFalse
			} else {
				addend[j] = c.mkAnd([]sat.Lit{a[j-i], b[i]})
			}
		}
		acc, _ = c.mkAdder(acc, addend, c.litFalse)
	}
	return acc
}

// mkBVEq returns a literal equivalent to bitwise equality of a and b.
func (c *Context) mkBVEq(a, b []sat.Lit) sat.Lit {
	eqs := make([]sat.Lit, len(a))
	for i := range a {
		eqs[i] = c.mkXor(a[i], b[i]).Neg()
	}
	return c.mkAnd(eqs)
}

// mkULT returns a literal equivalent to unsigned a < b, computed as the
// borrow-out of a - b.
func (c *Context) mkULT(a, b []sat.Lit) sat.Lit {
	borrow := c.litFalse
	for i := range a {
		// borrow' = majority(~a, b, borrow)
		borrow = c.mkMaj(a[i].Neg(), b[i], borrow)
	}
	return borrow
}

// mkSLT returns a literal equivalent to signed a < b.
func (c *Context) mkSLT(a, b []sat.Lit) sat.Lit {
	w := len(a)
	am, bm := a[w-1], b[w-1]
	ult := c.mkULT(a, b)
	// Different signs: a < b iff a is negative. Same signs: unsigned order.
	return c.mkIte(c.mkXor(am, bm), am, ult)
}

type shiftKind int

const (
	shiftLeft shiftKind = iota
	shiftRightLogical
	shiftRightArith
)

// mkShift builds a barrel shifter. Shift amounts >= width produce zero
// (or all-sign for arithmetic right shift), matching smt.Eval semantics.
func (c *Context) mkShift(t *smt.Term, kind shiftKind) []sat.Lit {
	a := c.Bits(t.Arg(0))
	sh := c.Bits(t.Arg(1))
	w := len(a)
	fill := func() sat.Lit { return c.litFalse }
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
					shifted = c.litFalse
				}
			default:
				if i+amount < w {
					shifted = cur[i+amount]
				} else {
					shifted = fill()
				}
			}
			next[i] = c.mkIte(sh[k], shifted, cur[i])
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
		inRange := c.mkAnd(highBits)
		for i := range cur {
			cur[i] = c.mkIte(inRange, cur[i], fill())
		}
	}
	return cur
}

// ModelBool reads the model value of boolean term t after a Sat result.
// t must have been blasted before solving.
func (c *Context) ModelBool(t *smt.Term) bool {
	l, ok := c.lit[t]
	if !ok {
		panic(fmt.Sprintf("bitblast: term not blasted: %s", t))
	}
	return c.s.ValueLit(l)
}

// ModelBV reads the model value of bitvector term t after a Sat result.
// t must have been blasted before solving.
func (c *Context) ModelBV(t *smt.Term) *big.Int {
	bs, ok := c.bv[t]
	if !ok {
		panic(fmt.Sprintf("bitblast: term not blasted: %s", t))
	}
	v := new(big.Int)
	for i, l := range bs {
		if c.s.ValueLit(l) {
			v.SetBit(v, i, 1)
		}
	}
	return v
}

// ModelValue reads the model value of t (boolean values map to 0/1).
func (c *Context) ModelValue(t *smt.Term) *big.Int {
	if t.Sort().IsBool() {
		if c.ModelBool(t) {
			return big.NewInt(1)
		}
		return big.NewInt(0)
	}
	return c.ModelBV(t)
}
