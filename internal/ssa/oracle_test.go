package ssa_test

import (
	"fmt"
	"testing"

	"bf4/internal/core"
	"bf4/internal/driver"
	"bf4/internal/ir"
	"bf4/internal/progs"
	"bf4/internal/prop"
	"bf4/internal/slice"
	"bf4/internal/smt"
	"bf4/internal/solver"
	"bf4/internal/ssa"
	"bf4/internal/wp"
)

// oncePerPath counts, for every versioned term, the constraints that define
// it along the worst path of the acyclic CFG, and fails above one. A term is
// defined by the assignment that minted it and by every edge equality in
// which it is the later version: the other side is what the path already
// holds. It returns how many edge equalities and how many terms defined in
// more than one place it saw.
func oncePerPath(t *testing.T, round string, pass *ssa.Result) (equalities, shared int) {
	type sites struct {
		node map[*ir.Node]int
		edge map[ssa.EdgeKey]int
		n    int
	}
	defs := map[*smt.Term]*sites{}
	at := func(term *smt.Term) *sites {
		if defs[term] == nil {
			defs[term] = &sites{node: map[*ir.Node]int{}, edge: map[ssa.EdgeKey]int{}}
		}
		defs[term].n++
		return defs[term]
	}
	for n, c := range pass.NodeCond {
		var minted *smt.Term
		for _, v := range c.Vars(nil) {
			if pass.BaseVar[v] == n.Var && (minted == nil || pass.Version(v) > pass.Version(minted)) {
				minted = v
			}
		}
		if minted == nil || pass.Version(minted) == 0 {
			t.Fatalf("%s: n%d's constraint %s names no version of %s", round, n.ID, c, n.Var.Name)
		}
		at(minted).node[n]++
	}
	for k, c := range pass.EdgeCond {
		for _, pair := range pass.JoinEqualities(c) {
			at(pair[0]).edge[k]++
			equalities++
		}
	}
	topo := pass.P.Topo()
	for term, s := range defs {
		if s.n < 2 {
			continue
		}
		shared++
		worst := map[*ir.Node]int{}
		for _, n := range topo {
			w := 0
			for _, p := range n.Preds {
				if got, ok := worst[p]; ok {
					w = max(w, got+s.edge[ssa.EdgeKey{From: p.ID, To: n.ID}])
				}
			}
			w += s.node[n]
			worst[n] = w
			if w > 1 {
				t.Errorf("%s: a path to n%d constrains %s %d times", round, n.ID, term.Name(), w)
				break
			}
		}
	}
	return equalities, shared
}

// TestEachIncarnationConstrainedOncePerPath holds every passified program
// the repository produces to the invariant the passive form rests on: no
// path defines a version twice. It does not care how a join chooses its
// version; a rule that picks a lower incoming one, or the first
// predecessor's, or a version live into the join's dominator, breaks it.
func TestEachIncarnationConstrainedOncePerPath(t *testing.T) {
	equalities, shared := 0, 0
	check := func(t *testing.T, round string, pl *core.Pipeline) {
		e, s := oncePerPath(t, round, pl.Pass)
		equalities, shared = equalities+e, shared+s
	}
	for _, p := range progs.All() {
		runs := map[string]string{p.Name: p.Source}
		if p.Name == "switch" {
			if testing.Short() {
				continue
			}
			runs = map[string]string{"switch@1": progs.GenerateSwitch(1), "switch@2": progs.GenerateSwitch(2)}
		}
		for name, src := range runs {
			t.Run(name, func(t *testing.T) {
				cfg := driver.DefaultConfig()
				cfg.Workers = 2
				res, err := driver.Run(name, src, cfg)
				if err != nil {
					t.Fatal(err)
				}
				check(t, "round 0", res.Initial)
				if res.Fixed != nil {
					check(t, "final round", res.Fixed)
				}
			})
		}
	}
	for seed := 1; seed <= 3; seed++ {
		for _, leaky := range []bool{true, false} {
			name := fmt.Sprintf("taintswitch@4/seed%d/leaky=%v", seed, leaky)
			t.Run(name, func(t *testing.T) {
				rep, err := driver.Taint(name, progs.GenerateTaintSwitch(4, seed, leaky), driver.DefaultTaintConfig())
				if err != nil {
					t.Fatal(err)
				}
				check(t, "taint", rep.Pipeline)
			})
		}
		name := fmt.Sprintf("propswitch@2/seed%d", seed)
		t.Run(name, func(t *testing.T) {
			src, file := progs.GeneratePropSwitch(2, seed)
			props, err := prop.ParseSpecFile(name+".props", []byte(file))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := driver.Props(name, src, props, driver.DefaultPropConfig())
			if err != nil {
				t.Fatal(err)
			}
			check(t, "props", rep.Pipeline)
		})
	}
	t.Logf("%d edge equalities, %d versions defined in more than one place", equalities, shared)
	if shared == 0 {
		t.Fatal("no version is defined in more than one place: the oracle saw nothing")
	}
}

// TestJoinRuleKeepsVerdicts is the oracle that does not depend on which
// models a search returns first: the same IR passified with the fresh-version
// join (ssa.PassifyFreshJoins) must give every bug node's reachability
// condition — sliced, as FindBugs checks it, and whole — and the OK formula
// the verdict Passify's encoding gives, each on a solver of its own.
func TestJoinRuleKeepsVerdicts(t *testing.T) {
	checked, sat := 0, 0
	for _, p := range progs.All() {
		name, src := p.Name, p.Source
		if p.Name == "switch" {
			if testing.Short() {
				continue
			}
			name, src = "switch@1", progs.GenerateSwitch(1)
		}
		t.Run(name, func(t *testing.T) {
			pl, err := core.Compile(src, ir.DefaultOptions(), true)
			if err != nil {
				t.Fatal(err)
			}
			ref := ssa.PassifyFreshJoins(pl.IR)
			keep, _ := slice.WRTBugs(pl.IR)
			refReach, refFull := wp.Compute(pl.IR, ref, keep), wp.Compute(pl.IR, ref, nil)
			got, want := solver.New(pl.IR.F), solver.New(pl.IR.F)
			same := func(what string, cond, refCond *smt.Term) {
				g, w := got.Check(cond), want.Check(refCond)
				if g != w {
					t.Errorf("%s is %v, and %v with a fresh version at every join", what, g, w)
				}
				checked++
				if g == solver.Sat {
					sat++
				}
			}
			for _, bn := range pl.IR.Bugs {
				same(fmt.Sprintf("reach(n%d %s), sliced", bn.ID, bn.Comment), pl.Reach.Cond[bn], refReach.Cond[bn])
				same(fmt.Sprintf("reach(n%d %s)", bn.ID, bn.Comment), pl.FullReach.Cond[bn], refFull.Cond[bn])
			}
			same("OK", pl.FullReach.OK, refFull.OK)
		})
	}
	t.Logf("%d conditions, %d Sat", checked, sat)
	if sat == 0 || sat == checked {
		t.Fatalf("%d of %d conditions Sat: the oracle needs both verdicts", sat, checked)
	}
}
