// Package rewrite is a canonicalizing, evaluation-preserving rewrite
// engine over internal/smt terms, driven by the known-bits + interval
// abstract domain (internal/absdom). It goes beyond the factory's local
// construction-time rules: decided comparisons collapse to constants even
// when neither operand is syntactically constant, comparisons whose
// operands share a known equal high-bit prefix are narrowed to the
// undecided low bits, additions whose operands cannot share a set bit
// become carry-free ors, extracts commute into concats and extensions,
// and bitwise ops absorb operands the bit masks prove redundant.
//
// Every rule preserves evaluation under every environment — rewritten
// formulas are equisatisfiable and model-identical with the originals —
// which is what lets the solver blast the rewritten form while reporting
// models and unsat cores in terms of the originals. Soundness is enforced
// mechanically by differential fuzzing against smt.Eval and by replaying
// every corpus program's real verification conditions (see tests).
//
// Rewriting is memoized on Term.ID(): shared DAG nodes rewrite once, so a
// pass over a full verification report costs one traversal of its
// distinct nodes. The factory's hash-consing re-canonicalizes every
// rebuilt node (deterministic argument order by content hash), so equal
// subterms surface as pointer-equal terms no matter which conditions they
// arrived in.
package rewrite

import (
	"math/big"

	"bf4/internal/absdom"
	"bf4/internal/smt"
)

// Stats counts rule applications, for the experiments layer.
type Stats struct {
	// Terms is the number of distinct nodes visited; Changed counts nodes
	// whose rewritten form differs from the original.
	Terms   int `json:"terms"`
	Changed int `json:"changed"`
	// DecidedBool counts boolean subterms the domain decided outright;
	// FoldedConst counts bitvector subterms that collapsed to constants.
	DecidedBool int `json:"decided_bool"`
	FoldedConst int `json:"folded_const"`
	// NarrowedCmp counts comparisons reduced to a smaller width via a
	// known equal high-bit prefix; CarryFreeAdd counts bvadd→bvor
	// conversions; Absorbed counts bvand/bvor operand absorptions;
	// ExtractPush counts extracts commuted into concat/zext/sext;
	// DecidedIte counts ites whose condition the domain decided.
	NarrowedCmp  int `json:"narrowed_cmp"`
	CarryFreeAdd int `json:"carry_free_add"`
	Absorbed     int `json:"absorbed"`
	ExtractPush  int `json:"extract_push"`
	DecidedIte   int `json:"decided_ite"`
	// BoolAbsorbed counts and/or arguments dropped or shrunk by the
	// boolean absorption laws; Factored counts common conjuncts/disjuncts
	// pulled out of or-of-ands / and-of-ors.
	BoolAbsorbed int `json:"bool_absorbed"`
	Factored     int `json:"factored"`
}

// Rewriter rewrites terms of one factory. Not safe for concurrent use;
// create one per goroutine (they share nothing but the factory, which is
// itself thread-safe).
type Rewriter struct {
	f     *smt.Factory
	ad    *absdom.Analyzer
	memo  map[uint32]*smt.Term
	stats Stats
}

// New returns a rewriter for terms of f.
func New(f *smt.Factory) *Rewriter {
	return &Rewriter{
		f:    f,
		ad:   absdom.NewAnalyzer(),
		memo: make(map[uint32]*smt.Term),
	}
}

// Stats returns cumulative rule-application counts.
func (r *Rewriter) Stats() Stats { return r.stats }

// Rewrite returns an evaluation-equivalent, typically smaller term.
// Results are memoized; rewriting is idempotent.
func (r *Rewriter) Rewrite(t *smt.Term) *smt.Term {
	if out, ok := r.memo[t.ID()]; ok {
		return out
	}
	r.stats.Terms++
	out := r.rewriteNode(t)
	r.memo[t.ID()] = out
	r.memo[out.ID()] = out // idempotence
	if out != t {
		r.stats.Changed++
	}
	return out
}

func (r *Rewriter) rewriteNode(t *smt.Term) *smt.Term {
	// Bottom-up: rewrite the arguments, then rebuild through the
	// factory's simplifying constructors (constant folding, identities,
	// canonical argument order).
	out := t
	if args := t.Args(); len(args) > 0 {
		newArgs := make([]*smt.Term, len(args))
		changed := false
		for i, a := range args {
			newArgs[i] = r.Rewrite(a)
			changed = changed || newArgs[i] != a
		}
		if changed {
			var err error
			if out, err = r.f.Apply(t.Op(), newArgs, t.Indices()...); err != nil {
				panic(err) // a rule changed a sort
			}
			// The rebuilt node may be one we already rewrote in full.
			if memoized, ok := r.memo[out.ID()]; ok {
				return memoized
			}
		}
	}

	// Structural, domain-guided rules per operator.
	out = r.applyRules(out)

	// Decided fold: if the abstract domain pins the value, replace the
	// whole subterm with the constant.
	if out.Sort().IsBool() {
		if val, ok := r.ad.Of(out).Decided(); ok && out.Op() != smt.OpTrue && out.Op() != smt.OpFalse {
			r.stats.DecidedBool++
			return r.f.Bool(val)
		}
		return out
	}
	if x, ok := r.ad.Of(out).Singleton(); ok && !out.IsConst() {
		r.stats.FoldedConst++
		return r.f.BVConst(x, out.Sort().Width)
	}
	return out
}

// applyRules dispatches the operator-specific rewrites. Its input has
// fully rewritten arguments; rules that build new structure recurse
// through Rewrite, which terminates because every recursive call is on a
// strictly narrower or smaller term.
func (r *Rewriter) applyRules(t *smt.Term) *smt.Term {
	switch t.Op() {
	case smt.OpAnd:
		return r.ruleShrinkNary(t, true)
	case smt.OpOr:
		return r.ruleShrinkNary(t, false)
	case smt.OpIte:
		if val, ok := r.ad.Of(t.Arg(0)).Decided(); ok {
			r.stats.DecidedIte++
			if val {
				return t.Arg(1)
			}
			return t.Arg(2)
		}
	case smt.OpAdd:
		return r.ruleCarryFreeAdd(t)
	case smt.OpBVAnd:
		return r.ruleAbsorb(t, true)
	case smt.OpBVOr:
		return r.ruleAbsorb(t, false)
	case smt.OpExtract:
		return r.ruleExtractPush(t)
	case smt.OpEq:
		return r.ruleNarrowCmp(t, smt.OpEq)
	case smt.OpUlt:
		return r.ruleNarrowCmp(t, smt.OpUlt)
	case smt.OpUle:
		return r.ruleNarrowCmp(t, smt.OpUle)
	case smt.OpSlt:
		return r.ruleNarrowCmp(t, smt.OpSlt)
	case smt.OpSle:
		return r.ruleNarrowCmp(t, smt.OpSle)
	}
	return t
}

// ruleShrinkNary applies the boolean absorption laws and common-factor
// extraction to and/or nodes — the rules that fire on weakest-
// precondition joins, where every branch of an or-of-ands repeats the
// frame conditions of the paths it merges:
//
//	x ∧ (x ∨ y) = x            x ∨ (x ∧ y) = x
//	x ∧ (¬x ∨ y) = x ∧ y       x ∨ (¬x ∧ y) = x ∨ y
//	(a∧x) ∨ (a∧y) = a ∧ (x∨y)  (a∨x) ∧ (a∨y) = a ∨ (x∧y)
//
// Each shrinks the gate-level circuit: absorption deletes whole Tseitin
// gates, factoring dedups the pulled term out of every branch gate.
func (r *Rewriter) ruleShrinkNary(t *smt.Term, isAnd bool) *smt.Term {
	inner := smt.OpOr
	if !isAnd {
		inner = smt.OpAnd
	}
	// rebuildInner builds an inner-op node (the dual of t's operator),
	// rebuildOuter a node of t's own operator.
	rebuildInner := func(parts []*smt.Term) *smt.Term {
		if isAnd {
			return r.f.Or(parts...)
		}
		return r.f.And(parts...)
	}
	rebuildOuter := func(parts []*smt.Term) *smt.Term {
		if isAnd {
			return r.f.And(parts...)
		}
		return r.f.Or(parts...)
	}

	args := t.Args()
	top := make(map[*smt.Term]bool, len(args))
	negTargets := make(map[*smt.Term]bool)
	for _, a := range args {
		top[a] = true
		if a.Op() == smt.OpNot {
			negTargets[a.Arg(0)] = true
		}
	}

	// Absorption: an inner node that repeats a sibling is redundant; one
	// that repeats a sibling's complement sheds that part.
	changed := false
	newArgs := make([]*smt.Term, 0, len(args))
	for _, a := range args {
		if a.Op() != inner {
			newArgs = append(newArgs, a)
			continue
		}
		redundant := false
		for _, c := range a.Args() {
			if top[c] {
				redundant = true
				break
			}
		}
		if redundant {
			r.stats.BoolAbsorbed++
			changed = true
			continue
		}
		kept := make([]*smt.Term, 0, len(a.Args()))
		stripped := false
		for _, c := range a.Args() {
			if negTargets[c] || (c.Op() == smt.OpNot && top[c.Arg(0)]) {
				stripped = true
				continue
			}
			kept = append(kept, c)
		}
		if stripped {
			r.stats.BoolAbsorbed++
			changed = true
			newArgs = append(newArgs, rebuildInner(kept))
			continue
		}
		newArgs = append(newArgs, a)
	}
	if changed {
		return r.Rewrite(rebuildOuter(newArgs))
	}

	// Factoring: when every argument is an inner node, pull the parts
	// they all share out in front. Guarded to fire only when the term
	// strictly shrinks (or a residual collapses to a single part), which
	// is also what makes the rewrite chain terminate.
	if len(args) < 2 {
		return t
	}
	for _, a := range args {
		if a.Op() != inner {
			return t
		}
	}
	var common []*smt.Term
	for _, c := range args[0].Args() {
		inAll := true
		for _, a := range args[1:] {
			if !containsTerm(a.Args(), c) {
				inAll = false
				break
			}
		}
		if inAll {
			common = append(common, c)
		}
	}
	if len(common) == 0 {
		return t
	}
	minResidual := len(args[0].Args())
	for _, a := range args {
		if m := len(a.Args()) - len(common); m < minResidual {
			minResidual = m
		}
	}
	if (len(args)-1)*len(common) <= 1 && minResidual > 1 {
		return t
	}
	r.stats.Factored++
	residuals := make([]*smt.Term, len(args))
	for i, a := range args {
		rest := make([]*smt.Term, 0, len(a.Args())-len(common))
		for _, c := range a.Args() {
			if !containsTerm(common, c) {
				rest = append(rest, c)
			}
		}
		residuals[i] = rebuildInner(rest)
	}
	return r.Rewrite(rebuildInner(append(common, rebuildOuter(residuals))))
}

func containsTerm(list []*smt.Term, t *smt.Term) bool {
	for _, u := range list {
		if u == t {
			return true
		}
	}
	return false
}

// ruleCarryFreeAdd rewrites a + b to a | b when no bit position can be
// set in both operands — the addition can never carry, and the or blasts
// to one gate per bit instead of a ripple-carry adder.
func (r *Rewriter) ruleCarryFreeAdd(t *smt.Term) *smt.Term {
	a, b := t.Arg(0), t.Arg(1)
	za, _ := r.ad.Of(a).KnownBits()
	zb, _ := r.ad.Of(b).KnownBits()
	w := t.Sort().Width
	m := smt.Mask(w)
	mayA := new(big.Int).AndNot(m, za)
	mayB := new(big.Int).AndNot(m, zb)
	if new(big.Int).And(mayA, mayB).Sign() != 0 {
		return t
	}
	r.stats.CarryFreeAdd++
	return r.Rewrite(r.f.BVOr(a, b))
}

// ruleAbsorb drops an operand of bvand/bvor that the known bits prove
// redundant: for and, an operand known 1 wherever the other may be 1; for
// or, an operand known 0 wherever the other may be 1.
func (r *Rewriter) ruleAbsorb(t *smt.Term, isAnd bool) *smt.Term {
	a, b := t.Arg(0), t.Arg(1)
	w := t.Sort().Width
	m := smt.Mask(w)
	za, oa := r.ad.Of(a).KnownBits()
	zb, ob := r.ad.Of(b).KnownBits()
	mayA := new(big.Int).AndNot(m, za)
	mayB := new(big.Int).AndNot(m, zb)
	covered := func(may, known *big.Int) bool {
		return new(big.Int).AndNot(may, known).Sign() == 0
	}
	if isAnd {
		// a & b = a when b is known 1 on every bit a may set (and dually).
		if covered(mayA, ob) {
			r.stats.Absorbed++
			return a
		}
		if covered(mayB, oa) {
			r.stats.Absorbed++
			return b
		}
		return t
	}
	// a | b = a when b is known 0 on every bit it could contribute —
	// i.e. b may only set bits a is already known to have set.
	if covered(mayB, oa) {
		r.stats.Absorbed++
		return a
	}
	if covered(mayA, ob) {
		r.stats.Absorbed++
		return b
	}
	return t
}

// ruleExtractPush commutes an extract into concat/zext/sext so the
// narrowed operand, not the assembled word, is blasted.
func (r *Rewriter) ruleExtractPush(t *smt.Term) *smt.Term {
	hi, lo := t.ExtractBounds()
	x := t.Arg(0)
	switch x.Op() {
	case smt.OpConcat:
		a, b := x.Arg(0), x.Arg(1)
		wb := b.Sort().Width
		r.stats.ExtractPush++
		switch {
		case hi < wb:
			return r.Rewrite(r.f.Extract(b, hi, lo))
		case lo >= wb:
			return r.Rewrite(r.f.Extract(a, hi-wb, lo-wb))
		default:
			return r.Rewrite(r.f.Concat(
				r.f.Extract(a, hi-wb, 0),
				r.f.Extract(b, wb-1, lo)))
		}
	case smt.OpZExt:
		a := x.Arg(0)
		wa := a.Sort().Width
		r.stats.ExtractPush++
		switch {
		case lo >= wa: // entirely in the zero extension
			return r.f.BVConst64(0, hi-lo+1)
		case hi < wa: // entirely in the operand
			return r.Rewrite(r.f.Extract(a, hi, lo))
		default: // straddles: low part of the operand, zero-extended
			return r.Rewrite(r.f.ZExt(r.f.Extract(a, wa-1, lo), hi-lo+1))
		}
	case smt.OpSExt:
		a := x.Arg(0)
		if wa := a.Sort().Width; hi < wa {
			r.stats.ExtractPush++
			return r.Rewrite(r.f.Extract(a, hi, lo))
		}
	}
	return t
}

// ruleNarrowCmp narrows a comparison whose operands agree on a known
// high-bit prefix: with the top k bits pinned equal, the comparison is
// decided by the low w-k bits alone. Signed comparisons become unsigned
// ones (the equal prefix includes the sign bit). Conflicting known
// prefixes are left to the decided-fold (the domain already decides
// them).
func (r *Rewriter) ruleNarrowCmp(t *smt.Term, op smt.Op) *smt.Term {
	a, b := t.Arg(0), t.Arg(1)
	w := a.Sort().Width
	za, oa := r.ad.Of(a).KnownBits()
	zb, ob := r.ad.Of(b).KnownBits()
	k := 0
	for i := w - 1; i >= 0; i-- {
		if za.Bit(i) == 1 && zb.Bit(i) == 1 {
			k++
			continue
		}
		if oa.Bit(i) == 1 && ob.Bit(i) == 1 {
			k++
			continue
		}
		break
	}
	if k == 0 || k >= w {
		return t
	}
	r.stats.NarrowedCmp++
	la := r.Rewrite(r.f.Extract(a, w-k-1, 0))
	lb := r.Rewrite(r.f.Extract(b, w-k-1, 0))
	switch op {
	case smt.OpEq:
		return r.f.Eq(la, lb)
	case smt.OpUlt, smt.OpSlt:
		return r.f.Ult(la, lb)
	case smt.OpUle, smt.OpSle:
		return r.f.Ule(la, lb)
	}
	return t
}
