package sat

import (
	"math/rand"
	"slices"
	"testing"
)

// TestInprocessRetractedScope models the solver-layer scope lifecycle: a
// retracted activation scope asserts ¬act at level 0, and the next
// Inprocess pass must clean every guard clause of that scope out of the
// database while leaving the solver sound.
func TestInprocessRetractedScope(t *testing.T) {
	s := New()
	act, x, y := s.NewVar(), s.NewVar(), s.NewVar()
	// Scoped assertions: act → x, act → ¬y.
	s.AddClause(MkLit(act, true), MkLit(x, false))
	s.AddClause(MkLit(act, true), MkLit(y, true))
	if got := s.Solve(MkLit(act, false)); got != Sat {
		t.Fatalf("inside scope: got %v, want Sat", got)
	}
	if !s.Value(x) || s.Value(y) {
		t.Fatalf("inside scope want x=true y=false")
	}
	// Retract: ¬act becomes a level-0 fact.
	s.AddClause(MkLit(act, true))
	if deleted := s.Inprocess(); deleted != 2 {
		t.Fatalf("deleted = %d, want 2 (both guard clauses satisfied by ¬act)", deleted)
	}
	if s.NumClauses() != 0 {
		t.Fatalf("NumClauses = %d, want 0", s.NumClauses())
	}
	// x and y are unconstrained again.
	if got := s.Solve(MkLit(x, true), MkLit(y, false)); got != Sat {
		t.Fatalf("after retract: got %v, want Sat", got)
	}
}

// TestInprocessForgetsRetractedLiteral: once ¬act is a level-0 fact, one
// Inprocess pass leaves no live clause — problem or learnt — that mentions
// act: each holds ¬act and is deleted as satisfied. The scope's guard
// clauses make a pigeonhole instance, so the search inside the scope learns
// clauses over act before it is retracted.
func TestInprocessForgetsRetractedLiteral(t *testing.T) {
	s := New()
	act := s.NewVar()
	const holes = 4
	var p [holes + 1][holes]Var
	for i := range p {
		for j := range p[i] {
			p[i][j] = s.NewVar()
		}
	}
	// Every pigeon sits in some hole (unscoped, satisfiable on its own)...
	for i := range p {
		var cl []Lit
		for j := range p[i] {
			cl = append(cl, MkLit(p[i][j], false))
		}
		s.AddClause(cl...)
	}
	// ...and, inside the scope only, no two pigeons share one.
	for j := 0; j < holes; j++ {
		for i := range p {
			for k := i + 1; k < len(p); k++ {
				s.AddClause(MkLit(act, true), MkLit(p[i][j], true), MkLit(p[k][j], true))
			}
		}
	}
	if got := s.Solve(MkLit(act, false)); got != Unsat {
		t.Fatalf("inside scope: got %v, want Unsat", got)
	}
	if s.StatsSnapshot().Learned == 0 {
		t.Fatalf("scope refuted without learning: the test exercises no learnt clause")
	}
	mentions := func() (n int) {
		for _, cref := range s.clauses {
			if s.arena[cref]&deletedBit != 0 {
				continue
			}
			for _, l := range s.litsOf(cref) {
				if Lit(l).Var() == act {
					n++
				}
			}
		}
		return n
	}
	if mentions() == 0 {
		t.Fatalf("no live clause mentions act before the retract")
	}
	s.AddClause(MkLit(act, true))
	s.Inprocess()
	if n := mentions(); n != 0 {
		t.Fatalf("%d literal(s) of the retracted activation variable survive Inprocess", n)
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("after retract: got %v, want Sat", got)
	}
}

// liveClauses lists s's live clauses in attach order, learnt bit and
// literals in arena order.
func liveClauses(s *Solver) (cs [][]uint32) {
	for _, cref := range s.clauses {
		if h := s.arena[cref]; h&deletedBit == 0 {
			cs = append(cs, append([]uint32{h & learntBit}, s.litsOf(cref)...))
		}
	}
	return cs
}

// inprocessTrial adds the same random CNF, in batches, to a plain
// reference solver and to a solver that runs Inprocess after every batch,
// then compares Solve results under random assumptions and checks that the
// model satisfies every clause added so far, and the arena and watch-list
// invariants after every Solve and Inprocess. Each Inprocess pass must
// leave the trail alone and keep, in order, exactly the live clauses with
// no true literal, those with false literals included.
func inprocessTrial(t *testing.T, seed int64, fresh func() *Solver) {
	rng := rand.New(rand.NewSource(seed))
	nVars := 4 + rng.Intn(12)
	s, ref := fresh(), fresh()
	vars := make([]Var, nVars)
	for i := range vars {
		vars[i] = s.NewVar()
		ref.NewVar()
	}
	var all [][]Lit
	addBatch := func(n int) {
		for i := 0; i < n; i++ {
			k := 1 + rng.Intn(3)
			var cl []Lit
			for j := 0; j < k; j++ {
				cl = append(cl, MkLit(vars[rng.Intn(len(vars))], rng.Intn(2) == 0))
			}
			all = append(all, cl)
			s.AddClause(cl...)
			ref.AddClause(cl...)
		}
	}
	batches := 1 + rng.Intn(3)
	for b := 0; b < batches; b++ {
		if b == 0 {
			addBatch(5 + rng.Intn(25))
		} else {
			addBatch(rng.Intn(8))
		}
		var assumptions []Lit
		for _, v := range vars {
			if rng.Intn(6) == 0 {
				assumptions = append(assumptions, MkLit(v, rng.Intn(2) == 0))
			}
		}
		got, want := s.Solve(assumptions...), ref.Solve(assumptions...)
		checkInvariants(t, s)
		checkInvariants(t, ref)
		if got != want {
			t.Fatalf("seed %d batch %d: inprocessed solver %v, reference %v (assumptions %v)",
				seed, b, got, want, assumptions)
		}
		if got == Sat {
			for _, cl := range all {
				ok := false
				for _, l := range cl {
					if s.ValueLit(l) {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("seed %d batch %d: model violates clause %v", seed, b, cl)
				}
			}
		}
		before, trail, ok := liveClauses(s), slices.Clone(s.trail), s.okState
		kept := before
		if ok {
			kept = slices.DeleteFunc(slices.Clone(before), func(c []uint32) bool {
				return slices.ContainsFunc(c[1:], func(w uint32) bool { return s.value(Lit(w)) == lTrue })
			})
		}
		if got := s.Inprocess(); got != len(before)-len(kept) {
			t.Fatalf("seed %d batch %d: Inprocess deleted %d of %d clauses, %d are satisfied", seed, b, got, len(before), len(before)-len(kept))
		}
		checkInvariants(t, s)
		if s.okState != ok || !slices.Equal(s.trail, trail) {
			t.Fatalf("seed %d batch %d: Inprocess moved ok %v → %v, trail %v → %v", seed, b, ok, s.okState, trail, s.trail)
		}
		if got := liveClauses(s); !slices.EqualFunc(got, kept, slices.Equal[[]uint32]) {
			t.Fatalf("seed %d batch %d: Inprocess left clauses %v, want the unsatisfied ones %v", seed, b, got, kept)
		}
	}
}

func TestInprocessEquivalenceRandom(t *testing.T) { inprocessEquivalenceRandom(t, New) }

func inprocessEquivalenceRandom(t *testing.T, fresh func() *Solver) {
	for seed := int64(0); seed < 200; seed++ {
		inprocessTrial(t, seed, fresh)
	}
}

// FuzzInprocess drives the same equivalence property from fuzzed seeds:
// interleaving Inprocess passes must never change a Solve verdict, and
// models must satisfy the original clause set.
func FuzzInprocess(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(1 << 30))
	f.Fuzz(func(t *testing.T, seed int64) {
		inprocessTrial(t, seed, New)
	})
}
