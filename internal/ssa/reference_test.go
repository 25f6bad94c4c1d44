package ssa

import (
	"bf4/internal/ir"
	"bf4/internal/smt"
)

// PassifyFreshJoins is Passify with the textbook Flanagan–Saxe join: every
// variable the predecessors disagree on gets a version of its own, equated
// with the incoming one on every in-edge. It is the reference the oracle
// tests hold Passify's join rule to, and nothing else calls it.
func PassifyFreshJoins(p *ir.Program) *Result {
	r := newResult(p)
	outState := map[*ir.Node]*pmap{}
	for _, n := range p.Topo() {
		preds, differ := joinInputs(n, outState)
		var in *pmap
		if len(preds) > 0 {
			in = outState[preds[0]]
		}
		for _, k := range differ {
			v := r.varByIdx[k]
			nv := r.freshVersion(v)
			in = in.set(k, nv)
			for _, p := range preds {
				r.conjoinEdge(EdgeKey{p.ID, n.ID}, r.f.Eq(nv, r.termOf(outState[p], v)))
			}
		}
		outState[n] = r.transfer(n, in)
	}
	return r
}

// JoinEqualities returns, later version first, the pairs of versions of one
// variable that the conjuncts of edge condition c equate. That is the only
// shape a join puts on an edge, and one no branch condition has: a condition
// reads one state, and a state holds one version of a variable. (Eq on
// booleans is built as ¬(a xor b).)
func (r *Result) JoinEqualities(c *smt.Term) (pairs [][2]*smt.Term) {
	conj := []*smt.Term{c}
	if c.Op() == smt.OpAnd {
		conj = c.Args()
	}
	for _, e := range conj {
		if e.Op() == smt.OpNot && e.Arg(0).Op() == smt.OpXor {
			e = e.Arg(0)
		} else if e.Op() != smt.OpEq {
			continue
		}
		a, b := e.Arg(0), e.Arg(1)
		if r.BaseVar[a] == nil || r.BaseVar[a] != r.BaseVar[b] {
			continue
		}
		if r.versionOf[a] < r.versionOf[b] {
			a, b = b, a
		}
		pairs = append(pairs, [2]*smt.Term{a, b})
	}
	return pairs
}

// Version is the number t was minted with: 0 for a variable's own term.
func (r *Result) Version(t *smt.Term) int { return r.versionOf[t] }
