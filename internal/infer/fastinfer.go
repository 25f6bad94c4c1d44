package infer

import (
	"slices"

	"bf4/internal/core"
	"bf4/internal/ir"
	"bf4/internal/smt"
)

// maxPaths bounds the symbolic exploration of one table region; table
// expansions are small (≈ #actions × #checks paths), so hitting the bound
// indicates a pathological program. A capped execution keeps the bug path
// conditions of the DFS prefix it explored and misses the rest.
const maxPaths = 4096

// FastInfer is the paper's Algorithm 2: symbolically execute the table's
// expansion from its assert point, collect the path condition of every
// path that ends in a bug, and emit ¬pc as a necessary precondition
// whenever pc mentions only controlled variables.
//
// The executor propagates match equalities as substitutions (e.g. an
// exact key over hdr.x.isValid() rewrites the validity bit in terms of
// the entry's key variable), which is what lets path conditions become
// fully controlled for tables that match on the right expressions — and
// is why adding keys (the Fixes algorithm) turns uncontrollable bugs into
// controllable ones.
func FastInfer(pl *core.Pipeline, inst *ir.TableInstance) *Assertion {
	ex := newSymbex(pl.IR, inst, controlledSet(inst), inst.Apply)
	ex.run(inst.Apply)
	return &Assertion{Instance: inst, Source: "fast-infer", Forbidden: dedupeTerms(ex.bugPCs)}
}

// symbex is a small-path symbolic executor over one expansion region.
type symbex struct {
	f          *smt.Factory
	stop       *ir.Node
	controlled map[string]bool
	boundary   int

	bugPCs []*smt.Term // the path conditions of the controlled bug paths
	paths  int

	// The path state: the path condition is the conjunction of conj, in
	// holds its members and negated the x of each not(x) among them; bind
	// maps a variable to its value (nil: unbound). trail logs every change.
	conj    []*smt.Term
	in      map[*smt.Term]bool
	negated map[*smt.Term]bool
	bind    map[*smt.Term]*smt.Term
	trail   []change

	// varsOf memoises Term.Vars. Terms are hash-consed and one run asks
	// for the variables of the same node expressions and path conditions
	// on every path through them; seen is the walk's reusable scratch.
	varsOf map[*smt.Term][]*smt.Term
	seen   map[uint32]bool
}

type change struct{ key, old *smt.Term } // a conjunct pushed (key nil) or key's binding replaced

// newSymbex returns an executor for inst's expansion that starts at from
// (inst's own apply node, or that of a dominating instance). Its one path
// state serves the whole depth-first run: a branch marks the trail, extends
// the state for its true side, undoes to the mark and extends it for its
// false side; a term is built only for a controlled bug path.
func newSymbex(p *ir.Program, inst *ir.TableInstance, controlled map[string]bool, from *ir.Node) *symbex {
	return &symbex{
		f: p.F, stop: inst.Join, controlled: controlled, boundary: from.ID,
		in: map[*smt.Term]bool{}, negated: map[*smt.Term]bool{}, bind: map[*smt.Term]*smt.Term{},
		varsOf: map[*smt.Term][]*smt.Term{}, seen: map[uint32]bool{},
	}
}

// vars returns the distinct variables of t, in Term.Vars order.
func (ex *symbex) vars(t *smt.Term) []*smt.Term {
	vs, ok := ex.varsOf[t]
	if !ok {
		clear(ex.seen)
		vs = t.VarsSeen(nil, ex.seen)
		ex.varsOf[t] = vs
	}
	return vs
}

// isControlled is termControlled over the executor's controlled set.
func (ex *symbex) isControlled(t *smt.Term) bool { return allControlled(ex.vars(t), ex.controlled) }

// assume conjoins c as Factory.And would, one conjunct at a time: an And
// adds its arguments; true or a present conjunct adds nothing. It reports
// false on false or a conjunct beside its complement: the path is dead.
func (ex *symbex) assume(c *smt.Term) bool {
	cs := []*smt.Term{c}
	if c.Op() == smt.OpAnd {
		cs = c.Args()
	}
	for _, x := range cs {
		switch {
		case x.IsTrue() || ex.in[x]:
			continue
		case x.IsFalse() || ex.negated[x] || x.Op() == smt.OpNot && ex.in[x.Arg(0)]:
			return false
		}
		ex.in[x] = true
		if x.Op() == smt.OpNot {
			ex.negated[x.Arg(0)] = true
		}
		ex.conj = append(ex.conj, x)
		ex.trail = append(ex.trail, change{})
	}
	return true
}

// set binds k to v.
func (ex *symbex) set(k, v *smt.Term) {
	ex.trail = append(ex.trail, change{key: k, old: ex.bind[k]})
	ex.bind[k] = v
}

// undo takes the path state back to when the trail was mark long.
func (ex *symbex) undo(mark int) {
	for i := len(ex.trail) - 1; i >= mark; i-- {
		if c := ex.trail[i]; c.key != nil {
			ex.bind[c.key] = c.old
			continue
		}
		x := ex.conj[len(ex.conj)-1]
		ex.conj = ex.conj[:len(ex.conj)-1]
		delete(ex.in, x)
		if x.Op() == smt.OpNot {
			delete(ex.negated, x.Arg(0))
		}
	}
	ex.trail = ex.trail[:mark]
}

// subst rewrites version-0 variables in t according to the bindings.
func (ex *symbex) subst(t *smt.Term) *smt.Term {
	var m map[*smt.Term]*smt.Term
	for _, vt := range ex.vars(t) {
		if v := ex.bind[vt]; v != nil && v != vt {
			if m == nil {
				m = map[*smt.Term]*smt.Term{}
			}
			m[vt] = v
		}
	}
	if m == nil {
		return t
	}
	return smt.Substitute(ex.f, t, m)
}

// learnEq mines substitutions from an assumed equality: if one side is a
// plain uncontrolled variable (or the ite-encoding of a boolean) and the
// other side is fully controlled, rewrite the variable.
func (ex *symbex) learnEq(cond *smt.Term) {
	if cond.Op() != smt.OpEq {
		return
	}
	a, b := cond.Arg(0), cond.Arg(1)
	ex.tryBind(a, b)
	ex.tryBind(b, a)
}

func (ex *symbex) tryBind(lhs, rhs *smt.Term) {
	if !ex.isControlled(rhs) {
		return
	}
	switch lhs.Op() {
	case smt.OpVar:
		if !ex.controlled[lhs.Name()] && ex.bind[lhs] == nil {
			ex.set(lhs, rhs)
		}
	case smt.OpIte:
		// ite(v, 1, 0) == rhs  with boolean v: bind v := (rhs == 1).
		c := lhs.Arg(0)
		tt, ff := lhs.Arg(1), lhs.Arg(2)
		if c.Op() == smt.OpVar && !ex.controlled[c.Name()] && ex.bind[c] == nil &&
			tt.IsConst() && ff.IsConst() && tt.Const().Sign() != 0 && ff.Const().Sign() == 0 {
			ex.set(c, ex.f.Eq(rhs, tt))
		}
	}
}

// run explores every path from n, depth first, from the path state.
func (ex *symbex) run(n *ir.Node) {
	feasible := true
	for {
		if ex.paths > maxPaths || !feasible {
			return
		}
		if n == ex.stop {
			ex.paths++ // exits the table: a good run by assumption
			return
		}
		switch n.Kind {
		case ir.BugTerm:
			ex.paths++
			if !slices.ContainsFunc(ex.conj, func(c *smt.Term) bool { return !ex.isControlled(c) }) {
				ex.bugPCs = append(ex.bugPCs, ex.f.And(ex.conj...))
			}
			return
		case ir.UnreachTerm:
			ex.paths++ // infeasible
			return
		case ir.AcceptTerm, ir.RejectTerm:
			ex.paths++ // left the region cleanly
			return
		case ir.Assign:
			ex.set(n.Var.Term, ex.subst(n.Expr))
		case ir.Havoc:
			// Havoc invalidates prior knowledge of the variable by
			// binding it to itself (stops substitution of stale values).
			ex.set(n.Var.Term, n.Var.Term)
		case ir.Branch:
			cond := ex.subst(n.Expr)
			if len(n.Succs) != 2 {
				return
			}
			tSucc, fSucc := n.Succs[0], n.Succs[1]
			if cond.IsTrue() {
				n = tSucc
				continue
			}
			if cond.IsFalse() {
				n = fSucc
				continue
			}
			// True side may teach us a substitution (match assumes);
			// rewrite the assumed condition with it so path conditions
			// are expressed over controlled variables where possible
			// (e.g. ¬valid becomes key0 != 1 after an isValid key match).
			mark := len(ex.trail)
			ex.learnEq(cond)
			condT := ex.subst(cond)
			if ex.isAssume(fSucc) {
				// Match relation: holds by definition for every packet
				// that hits the entry. Keep it in the path condition only
				// when it constrains the entry itself; an uncontrolled
				// residue (packet fields) is implied by "hit" and can be
				// soundly dropped — this is what makes ¬pc a predicate
				// over rules alone.
				if ex.isControlled(condT) {
					feasible = ex.assume(condT)
				}
				n = tSucc
				continue
			}
			if !ex.inRegion(tSucc) {
				ex.paths++
			} else if ex.assume(condT) {
				ex.run(tSucc)
			}
			// Continue on the false side, where the learned equality does
			// not hold: undo it and use the un-rewritten condition.
			ex.undo(mark)
			feasible = ex.assume(ex.f.Not(cond))
			n = fSucc
			if !ex.inRegion(n) {
				ex.paths++
				return
			}
			continue
		}
		if len(n.Succs) == 0 {
			ex.paths++
			return
		}
		n = n.Succs[0]
		if !ex.inRegion(n) {
			ex.paths++ // left the region (exit statement): good run
			return
		}
	}
}

// isAssume reports whether a branch's false successor leads to the
// unreachable terminal, i.e. the branch encodes an assumption (match
// relation) rather than program control flow.
func (ex *symbex) isAssume(fSucc *ir.Node) bool {
	if fSucc.Kind == ir.UnreachTerm {
		return true
	}
	return fSucc.Kind == ir.Nop && len(fSucc.Succs) == 1 && fSucc.Succs[0].Kind == ir.UnreachTerm
}

// inRegion reports whether a node belongs to this instance's expansion:
// expansion nodes are created after the apply node, and the join node
// terminates the walk separately.
func (ex *symbex) inRegion(n *ir.Node) bool {
	return n.ID > ex.boundary || n == ex.stop ||
		n.Kind == ir.BugTerm || n.Kind == ir.UnreachTerm
}
