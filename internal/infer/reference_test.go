package infer

import (
	"slices"

	"bf4/internal/core"
	"bf4/internal/ir"
	"bf4/internal/smt"
)

// The reference executor: Fast-Infer's symbolic execution with the path
// condition carried as a hash-consed term, rebuilt by f.And at every step,
// and the bindings as a persistent list; a branch hands its true side a new
// term and a longer list and keeps its own. It shares none of the
// production executor's path-state bookkeeping: refSymbex borrows only
// symbex's fields and the helpers both walks need (vars, isControlled,
// isAssume, inRegion), and refFastInfer / refFastInferLinked are FastInfer
// and fastInferLinked over it, filtering every bug path after the walk.
// It prunes nothing: it walks every path, uncontrolled conjuncts and table
// misses included, until it has walked refMaxPaths of them, and keeps the
// bug paths of the prefix it walked. TestExecutorMatchesReference holds the
// production executor to it.
type refSymbex struct {
	*symbex
	paths int // the paths walked so far
}

// refMaxPaths caps one reference execution: the unpruned walk of a linked
// execution at switch@2 runs to thousands of paths.
const refMaxPaths = 4096

// capped reports whether the walk stopped at refMaxPaths.
func (ex *refSymbex) capped() bool { return ex.paths > refMaxPaths }

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

// refFastInfer is FastInfer on the reference executor, which it returns too.
func refFastInfer(pl *core.Pipeline, inst *ir.TableInstance) (*Assertion, *refSymbex) {
	ex := &refSymbex{symbex: newSymbex(pl.IR, inst, controlledSet(inst), inst.Apply)}
	ex.run(inst.Apply, ex.f.True(), nil)
	a := &Assertion{Instance: inst, Source: "fast-infer"}
	for _, pc := range ex.bugPCs {
		if ex.isControlled(pc) {
			a.Forbidden = append(a.Forbidden, pc)
		}
	}
	a.Forbidden = dedupeTerms(a.Forbidden)
	return a, ex
}

// refFastInferLinked is fastInferLinked on the reference executor, which it
// returns too. It drops a bug path that needs a table miss after the walk,
// where fastInferLinked's executor refuses ¬hit as a conjunct.
func refFastInferLinked(pl *core.Pipeline, t1, t2 *ir.TableInstance) (*Assertion, *refSymbex) {
	controlled := controlledSet(t1)
	for k := range controlledSet(t2) {
		controlled[k] = true
	}
	ex := &refSymbex{symbex: newSymbex(pl.IR, t2, controlled, t1.Apply)}
	ex.run(t1.Apply, ex.f.True(), ex.primeEnv(pl, t1.Apply))
	a := &Assertion{Instance: t2, Linked: t1, Source: "multi-table"}
	c1, c2 := controlledSet(t1), controlledSet(t2)
	f := pl.IR.F
	negHit1, negHit2 := f.Not(t1.HitVar.Term), f.Not(t2.HitVar.Term)
	for _, pc := range ex.bugPCs {
		if !ex.isControlled(pc) {
			continue
		}
		if containsConjunct(pc, negHit1) || containsConjunct(pc, negHit2) {
			continue
		}
		var in1, in2 bool
		for _, vt := range ex.vars(pc) {
			if c1[vt.Name()] {
				in1 = true
			}
			if c2[vt.Name()] {
				in2 = true
			}
		}
		if in1 && in2 {
			a.Forbidden = append(a.Forbidden, pc)
		}
	}
	a.Forbidden = dedupeTerms(a.Forbidden)
	return a, ex
}

// containsConjunct reports whether pc (a conjunction) contains t as a
// top-level conjunct.
func containsConjunct(pc, t *smt.Term) bool {
	return pc == t || pc.Op() == smt.OpAnd && slices.Contains(pc.Args(), t)
}

// subst rewrites version-0 variables in t according to the environment.
func (ex *refSymbex) subst(t *smt.Term, e *env) *smt.Term {
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

func (ex *refSymbex) learnEq(cond *smt.Term, e *env) *env {
	if cond.Op() != smt.OpEq {
		return e
	}
	a, b := cond.Arg(0), cond.Arg(1)
	e = ex.tryBind(a, b, e)
	e = ex.tryBind(b, a, e)
	return e
}

func (ex *refSymbex) tryBind(lhs, rhs *smt.Term, e *env) *env {
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

func (ex *refSymbex) run(n *ir.Node, pc *smt.Term, e *env) {
	for {
		if ex.capped() || pc.IsFalse() {
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
			te := ex.learnEq(cond, e)
			condT := ex.subst(cond, te)
			if ex.isAssume(fSucc) {
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

// primeEnv seeds the symbolic environment with facts that hold on EVERY
// run reaching the assert point: assignments whose node dominates it and
// that are not clobbered by any later possible writer.
func (ex *refSymbex) primeEnv(pl *core.Pipeline, ap *ir.Node) *env {
	p := pl.IR
	canReach := map[*ir.Node]bool{ap: true}
	stack := []*ir.Node{ap}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, pr := range n.Preds {
			if !canReach[pr] {
				canReach[pr] = true
				stack = append(stack, pr)
			}
		}
	}
	var e *env
	for _, n := range p.Topo() {
		if n == ap {
			break
		}
		if !canReach[n] {
			continue
		}
		switch n.Kind {
		case ir.Assign:
			if pl.Doms.Dominates(n, ap) {
				e = e.set(n.Var.Term, ex.subst(n.Expr, e))
			} else {
				e = e.set(n.Var.Term, n.Var.Term)
			}
		case ir.Havoc:
			e = e.set(n.Var.Term, n.Var.Term)
		}
	}
	return e
}
