package infer

import (
	"maps"
	"slices"

	"bf4/internal/core"
	"bf4/internal/ir"
	"bf4/internal/obs"
	"bf4/internal/pool"
	"bf4/internal/smt"
)

// MultiTable implements the paper's multi-table heuristic (§4.2): when a
// table t2 has bugs that single-table inference cannot control, and an
// earlier table t1 whose apply dominates t2's and whose key set is a
// subset of t2's exists, symbolic execution is restarted from t1's assert
// point. Path conditions then mention both instances' control variables
// — packets hitting an entry of t2 provably hit a specific entry shape of
// t1 (keys are linked through the shared packet fields) — and wholly
// controlled bug paths yield two-table assertions.
// Each t2 with uncontrolled bugs is an independent task, fanned out over
// the worker pool (workers <= 0 means GOMAXPROCS); per-task results keep
// the deterministic inner t1 order and are merged in instance order. Each
// (t1, t2) execution has a path state of its own, primed with t1's
// dominating facts; tasks share the program, its topological order and the
// term factory. reg (nil: nothing is recorded) counts what the heuristic
// costs: the (t1, t2) pairs executed, those that yielded a linked
// condition, those capped at maxPaths, and the paths explored.
func MultiTable(pl *core.Pipeline, uncontrolled []*core.Bug, workers int, reg *obs.Registry) []*Assertion {
	pairs := reg.Counter("bf4_infer_multitable_pairs_total")
	yielding := reg.Counter("bf4_infer_multitable_pairs_yielding_total")
	capped := reg.Counter("bf4_infer_multitable_capped_total")
	paths := reg.Counter("bf4_infer_multitable_paths_total")
	byInstance := map[*ir.TableInstance][]*core.Bug{}
	for _, b := range uncontrolled {
		if b.Instance != nil {
			byInstance[b.Instance] = append(byInstance[b.Instance], b)
		}
	}
	var targets []*ir.TableInstance
	for _, t2 := range pl.IR.Instances {
		if len(byInstance[t2]) > 0 {
			targets = append(targets, t2)
		}
	}
	topo := pl.IR.Topo()
	found := pool.Map(workers, len(targets), func(i int) *Assertion {
		t2 := targets[i]
		for _, t1 := range pl.IR.Instances {
			if t1 == t2 || !pl.Doms.Dominates(t1.Apply, t2.Apply) {
				continue
			}
			if !keysSubset(t1.Table, t2.Table) {
				continue
			}
			a, explored := fastInferLinked(pl, topo, t1, t2)
			pairs.Inc()
			paths.Add(int64(explored))
			if explored > maxPaths {
				capped.Inc()
			}
			if len(a.Forbidden) > 0 {
				yielding.Inc()
				return a
			}
		}
		return nil
	})
	var out []*Assertion
	for _, a := range found {
		if a != nil {
			out = append(out, a)
		}
	}
	return out
}

// primeEnv seeds the executor's bindings with facts that hold on EVERY
// run reaching the assert point ap: assignments whose node dominates it and
// that are not clobbered by any later possible writer. This is what lets
// the multi-table exploration know, e.g., that inner_ipv4 was invalidated
// right before t1 (the paper's H.setInvalid(); t1.apply(); t2.apply()
// pattern). topo is the program's topological order.
func (ex *symbex) primeEnv(pl *core.Pipeline, topo []*ir.Node, ap *ir.Node) {
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
	dominates := map[*ir.Node]bool{} // ap's dominator-tree ancestors
	for n := ap; n != nil; n = pl.Doms.Idom(n) {
		dominates[n] = true
	}
	// Topological order respects edges, so for any path containing both a
	// dominating writer and an off-path writer, the later one (in topo
	// order) is processed later; off-path writers invalidate.
	for _, n := range topo {
		if n == ap {
			break
		}
		if !canReach[n] {
			continue
		}
		switch n.Kind {
		case ir.Assign:
			if dominates[n] {
				ex.set(n.Var.Term, ex.subst(n.Expr))
			} else {
				ex.set(n.Var.Term, n.Var.Term)
			}
		case ir.Havoc:
			ex.set(n.Var.Term, n.Var.Term)
		}
	}
}

// containsConjunct reports whether pc (a conjunction) contains t as a
// top-level conjunct.
func containsConjunct(pc, t *smt.Term) bool {
	return pc == t || pc.Op() == smt.OpAnd && slices.Contains(pc.Args(), t)
}

// keysSubset reports whether every key path of t1 also appears in t2
// (the paper's "keys of t2 are a superset of t1" condition).
func keysSubset(t1, t2 *ir.Table) bool {
	have := map[string]bool{}
	for _, k := range t2.Keys {
		have[k.Path] = true
	}
	for _, k := range t1.Keys {
		if k.Path == "" || !have[k.Path] {
			return false
		}
	}
	return len(t1.Keys) > 0
}

// fastInferLinked runs the Fast-Infer executor from t1's assert point to
// t2's join, with both instances' variables controlled; only bug paths
// belonging to t2's region are kept. The second result is the number of
// paths the execution explored.
func fastInferLinked(pl *core.Pipeline, topo []*ir.Node, t1, t2 *ir.TableInstance) (*Assertion, int) {
	c1, c2 := controlledSet(t1), controlledSet(t2)
	controlled := maps.Clone(c1)
	maps.Copy(controlled, c2)
	ex := newSymbex(pl.IR, t2, controlled, t1.Apply)
	ex.primeEnv(pl, topo, t1.Apply)
	ex.run(t1.Apply)
	a := &Assertion{Instance: t2, Linked: t1, Source: "multi-table"}
	f := pl.IR.F
	negHit1, negHit2 := f.Not(t1.HitVar.Term), f.Not(t2.HitVar.Term)
	for _, pc := range ex.bugPCs {
		// A negated hit means the path relies on a table MISS, which is a
		// property of the whole rule set — not of the (e1, e2) pair — so
		// forbidding it would block rules with good runs.
		if containsConjunct(pc, negHit1) || containsConjunct(pc, negHit2) {
			continue
		}
		// Keep only conditions that genuinely link the two tables;
		// single-table conditions are already covered by FastInfer.
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
	return a, ex.paths
}
