package analysis

import (
	"math/big"

	"bf4/internal/smt"
)

// env is the abstract store shared by the constant-style analyses: a map
// from IR variable name to a literal term (true, false, or a bitvector
// constant) from the program's factory. A variable absent from the map is
// unknown (top); a nil env fact means the node is unreachable (bottom).
// Values are interned terms, so equality is pointer equality.
type env map[string]*smt.Term

func (e env) clone() env {
	out := make(env, len(e))
	for k, v := range e {
		out[k] = v
	}
	return out
}

func (e env) equal(o env) bool {
	if len(e) != len(o) {
		return false
	}
	for k, v := range e {
		if o[k] != v {
			return false
		}
	}
	return true
}

// joinEnv is the lattice join: keep only bindings present with the same
// value on both sides (anything else becomes unknown).
func joinEnv(a, b env) env {
	if a.equal(b) {
		return a
	}
	out := make(env)
	for k, v := range a {
		if b[k] == v {
			out[k] = v
		}
	}
	return out
}

// isLiteral reports whether t is a value the analyses track: a boolean or
// bitvector constant.
func isLiteral(t *smt.Term) bool {
	return t.IsConst() || t.IsTrue() || t.IsFalse()
}

// evalUnder partially evaluates t under the constants known in e. It
// substitutes each known variable by its literal and rebuilds the term
// through the factory's evaluation-preserving simplifying constructors,
// so a term whose free variables are all known collapses to a literal,
// and partially-known terms still fold where absorption applies
// (x && false, c == c, ...). Unknown variables are left symbolic — unlike
// smt.Eval, which resolves them to zero — which is what makes this a
// sound abstract evaluation. Last, rangeFold decides a comparison its
// operands' ranges settle.
func evalUnder(f *smt.Factory, t *smt.Term, e env) *smt.Term {
	if len(e) != 0 {
		var subst map[*smt.Term]*smt.Term
		for _, v := range t.Vars(nil) {
			if c, ok := e[v.Name()]; ok {
				if subst == nil {
					subst = make(map[*smt.Term]*smt.Term)
				}
				subst[v] = c
			}
		}
		if subst != nil {
			t = smt.Substitute(f, t, subst)
		}
	}
	return rangeFold(f, t)
}

// rangeFold decides an unsigned comparison whose operands' ranges are
// disjoint or ordered, and leaves every other term as it is. The rule
// exists for one shape: a register index narrower than the 32-bit bound it
// is checked against, (bvule size ((_ zero_extend n) idx)) with size ≥
// 2^width(idx), which no index value can reach. It is not a factory fold
// on purpose: the IR builder emits no bug check whose condition folds to
// false, and these checks are meant to exist and be discharged here.
func rangeFold(f *smt.Factory, t *smt.Term) *smt.Term {
	if t.Op() != smt.OpUlt && t.Op() != smt.OpUle {
		return t
	}
	aLo, aHi := unsignedRange(t.Arg(0))
	bLo, bHi := unsignedRange(t.Arg(1))
	strict := t.Op() == smt.OpUlt
	// a < b on every value when aHi < bLo, a ≤ b when aHi ≤ bLo; the
	// comparison fails on every value when aLo ≥ bHi (strict) or aLo > bHi.
	if c := aHi.Cmp(bLo); c < 0 || c == 0 && !strict {
		return f.True()
	}
	if c := aLo.Cmp(bHi); c > 0 || c == 0 && strict {
		return f.False()
	}
	return t
}

// unsignedRange returns bounds lo ≤ t ≤ hi over every assignment: a
// constant is its value, a zero extension lies within its operand's
// width, and anything else within its own. The results must not be
// mutated.
func unsignedRange(t *smt.Term) (lo, hi *big.Int) {
	switch {
	case t.IsConst():
		return t.Const(), t.Const()
	case t.Op() == smt.OpZExt:
		return zero, smt.Mask(t.Arg(0).Sort().Width)
	}
	return zero, smt.Mask(t.Sort().Width)
}

var zero = new(big.Int)

// refine strengthens e with the knowledge that cond evaluates to holds on
// the edge being followed, returning an extended copy (or e itself when
// nothing new is learned). Only definite facts are recorded: a boolean
// variable (possibly under negations) forced to a value, every conjunct
// of a holding conjunction, every disjunct of a failing disjunction, and
// var = literal equations. Everything else is soundly ignored.
func refine(f *smt.Factory, e env, cond *smt.Term, holds bool) env {
	var learned map[string]*smt.Term
	learn := func(name string, v *smt.Term) {
		if learned == nil {
			learned = make(map[string]*smt.Term)
		}
		learned[name] = v
	}
	var walk func(t *smt.Term, holds bool)
	walk = func(t *smt.Term, holds bool) {
		switch t.Op() {
		case smt.OpVar:
			if t.Sort().IsBool() {
				learn(t.Name(), f.Bool(holds))
			}
		case smt.OpNot:
			walk(t.Arg(0), !holds)
		case smt.OpAnd:
			if holds {
				for _, a := range t.Args() {
					walk(a, true)
				}
			}
		case smt.OpOr:
			if !holds {
				for _, a := range t.Args() {
					walk(a, false)
				}
			}
		case smt.OpEq:
			if !holds {
				return
			}
			x, y := t.Arg(0), t.Arg(1)
			// Eq canonicalizes argument order, so check both sides.
			if x.Op() == smt.OpVar && isLiteral(y) {
				learn(x.Name(), y)
			} else if y.Op() == smt.OpVar && isLiteral(x) {
				learn(y.Name(), x)
			}
		}
	}
	walk(cond, holds)
	if learned == nil {
		return e
	}
	out := e.clone()
	for k, v := range learned {
		out[k] = v
	}
	return out
}
