package infer

import (
	"bf4/internal/core"
	"bf4/internal/ir"
	"bf4/internal/smt"
)

// maxPaths bounds the symbolic exploration of one table region; table
// expansions are small (≈ #actions × #checks paths), so hitting the bound
// indicates a pathological program and degrades gracefully to "no
// assertion".
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
	ex.run(inst.Apply, ex.f.True(), nil)
	a := &Assertion{Instance: inst, Source: "fast-infer"}
	for _, pc := range ex.bugPCs {
		if ex.isControlled(pc) {
			a.Forbidden = append(a.Forbidden, pc)
		}
	}
	a.Forbidden = dedupeTerms(a.Forbidden)
	return a
}

// symbex is a small-path symbolic executor over one expansion region.
type symbex struct {
	p          *ir.Program
	f          *smt.Factory
	inst       *ir.TableInstance
	stop       *ir.Node
	controlled map[string]bool
	boundary   int

	bugPCs []*smt.Term
	paths  int

	// varsOf memoises Term.Vars. Terms are hash-consed and one run asks
	// for the variables of the same node expressions and path conditions
	// on every path through them; seen is the walk's reusable scratch.
	varsOf map[*smt.Term][]*smt.Term
	seen   map[uint32]bool
}

// newSymbex returns an executor for inst's expansion that starts at from
// (inst's own apply node, or that of a dominating instance).
func newSymbex(p *ir.Program, inst *ir.TableInstance, controlled map[string]bool, from *ir.Node) *symbex {
	return &symbex{
		p: p, f: p.F, inst: inst, stop: inst.Join, controlled: controlled, boundary: from.ID,
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

// env is a persistent substitution: variable base term → current value.
type env struct {
	parent *env
	key    *smt.Term
	val    *smt.Term
}

func (e *env) get(k *smt.Term) *smt.Term {
	for n := e; n != nil; n = n.parent {
		if n.key == k {
			return n.val
		}
	}
	return nil
}

func (e *env) set(k, v *smt.Term) *env {
	return &env{parent: e, key: k, val: v}
}

// subst rewrites version-0 variables in t according to the environment.
func (ex *symbex) subst(t *smt.Term, e *env) *smt.Term {
	if e == nil {
		return t
	}
	m := map[*smt.Term]*smt.Term{}
	for _, vt := range ex.vars(t) {
		if v := e.get(vt); v != nil && v != vt {
			m[vt] = v
		}
	}
	if len(m) == 0 {
		return t
	}
	return smt.Substitute(ex.f, t, m)
}

// learnEq mines substitutions from an assumed equality: if one side is a
// plain uncontrolled variable (or the ite-encoding of a boolean) and the
// other side is fully controlled, rewrite the variable.
func (ex *symbex) learnEq(cond *smt.Term, e *env) *env {
	if cond.Op() != smt.OpEq {
		return e
	}
	a, b := cond.Arg(0), cond.Arg(1)
	e = ex.tryBind(a, b, e)
	e = ex.tryBind(b, a, e)
	return e
}

func (ex *symbex) tryBind(lhs, rhs *smt.Term, e *env) *env {
	if !ex.isControlled(rhs) {
		return e
	}
	switch lhs.Op() {
	case smt.OpVar:
		if !ex.controlled[lhs.Name()] && e.get(lhs) == nil {
			return e.set(lhs, rhs)
		}
	case smt.OpIte:
		// ite(v, 1, 0) == rhs  with boolean v: bind v := (rhs == 1).
		c := lhs.Arg(0)
		tt, ff := lhs.Arg(1), lhs.Arg(2)
		if c.Op() == smt.OpVar && !ex.controlled[c.Name()] && e.get(c) == nil &&
			tt.IsConst() && ff.IsConst() && tt.Const().Sign() != 0 && ff.Const().Sign() == 0 {
			return e.set(c, ex.f.Eq(rhs, tt))
		}
	}
	return e
}

func (ex *symbex) run(n *ir.Node, pc *smt.Term, e *env) {
	for {
		if ex.paths > maxPaths || pc.IsFalse() {
			return
		}
		if n == ex.stop {
			ex.paths++ // exits the table: a good run by assumption
			return
		}
		switch n.Kind {
		case ir.BugTerm:
			ex.paths++
			ex.bugPCs = append(ex.bugPCs, pc)
			return
		case ir.UnreachTerm:
			ex.paths++ // infeasible
			return
		case ir.AcceptTerm, ir.RejectTerm:
			ex.paths++ // left the region cleanly
			return
		case ir.Assign:
			rhs := ex.subst(n.Expr, e)
			e = e.set(n.Var.Term, rhs)
		case ir.Havoc:
			// Havoc invalidates prior knowledge of the variable by
			// binding it to itself (stops substitution of stale values).
			e = e.set(n.Var.Term, n.Var.Term)
		case ir.Branch:
			cond := ex.subst(n.Expr, e)
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
			te := ex.learnEq(cond, e)
			condT := ex.subst(cond, te)
			if ex.isAssume(fSucc) {
				// Match relation: holds by definition for every packet
				// that hits the entry. Keep it in the path condition only
				// when it constrains the entry itself; an uncontrolled
				// residue (packet fields) is implied by "hit" and can be
				// soundly dropped — this is what makes ¬pc a predicate
				// over rules alone.
				if ex.isControlled(condT) {
					pc = ex.f.And(pc, condT)
				}
				e = te
				n = tSucc
				continue
			}
			if ex.inRegion(tSucc) {
				ex.run(tSucc, ex.f.And(pc, condT), te)
			} else {
				ex.paths++
			}
			// Continue iteratively on the false side, where the learned
			// equality does not hold: use the un-rewritten condition.
			pc = ex.f.And(pc, ex.f.Not(cond))
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
