package solver

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"bf4/internal/sat"
	"bf4/internal/smt"
	"bf4/internal/smt/termgen"
)

// TestAssertNumbersInputsFirst pins the SAT variable numbering the
// annotation files' order rests on: Assert numbers the input bits of its
// formula that no earlier call blasted before any gate of it, in the order
// a depth-first walk first meets their variables. Variable 0 is the
// constant. Blasting a formula gate by gate would number z after the
// comparator's gates here.
func TestAssertNumbersInputsFirst(t *testing.T) {
	const w = 4
	f := smt.NewFactory()
	x, y, z, u := f.BVVar("x", w), f.BVVar("y", w), f.BVVar("z", w), f.BVVar("u", w)
	p := f.BoolVar("p")
	s := New()

	next := sat.Var(1)
	want := func(v *smt.Term) {
		t.Helper()
		var got []sat.Lit
		if v.Sort().IsBool() {
			got = []sat.Lit{s.lit[v]}
		} else {
			got = s.bv[v]
		}
		for i, l := range got {
			if l != sat.MkLit(next, false) {
				t.Fatalf("bit %d of %s is literal %d, want the positive literal of variable %d", i, v, l, next)
			}
			next++
		}
	}

	s.Assert(f.And(f.Ult(x, y), f.Eq(f.Add(y, z), x), p))
	for _, v := range []*smt.Term{x, y, z, p} {
		want(v)
	}
	if int(next) >= s.sat.NumVars() {
		t.Fatalf("no gate after the inputs: %d variables", s.sat.NumVars())
	}
	if !slices.Equal(s.inputs, []*smt.Term{x, y, z, p}) {
		t.Fatalf("inputs %v, want [x y z p]", s.inputs)
	}

	// A second formula over a blasted and a new variable: only the new one
	// is numbered, right after what the first formula made.
	next = sat.Var(s.sat.NumVars())
	s.Assert(f.Ult(f.Add(x, u), y))
	want(u)
	if !slices.Equal(s.inputs, []*smt.Term{x, y, z, p, u}) {
		t.Fatalf("inputs %v, want [x y z p u]", s.inputs)
	}
}

// varNames returns the names of the variables of terms.
func varNames(terms ...*smt.Term) map[string]bool {
	names := map[string]bool{}
	for _, t := range terms {
		for _, v := range t.Vars(nil) {
			names[v.Name()] = true
		}
	}
	return names
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// checkModelKeys holds s to the contract of its variable table: after a Sat
// answer, Model assigns exactly the variables of asked, and ModelOf of any
// terms assigns exactly those of their variables that are in asked, with
// Model's values.
func checkModelKeys(t *testing.T, s *Solver, asked map[string]bool, probes []*smt.Term, where string) {
	t.Helper()
	model := s.Model()
	if got, want := sortedKeys(model), sortedKeys(asked); !slices.Equal(got, want) {
		t.Fatalf("%s: Model assigns %v, want %v", where, got, want)
	}
	for i := range probes {
		of := s.ModelOf(probes[:i+1]...)
		want := []string{}
		for name := range varNames(probes[:i+1]...) {
			if asked[name] {
				want = append(want, name)
			}
		}
		slices.Sort(want)
		if got := sortedKeys(of); !slices.Equal(got, want) {
			t.Fatalf("%s: ModelOf(%v) assigns %v, want %v", where, probes[:i+1], got, want)
		}
		for name, v := range of {
			if v.Cmp(model[name]) != 0 {
				t.Fatalf("%s: ModelOf gives %s %v, Model %v", where, name, v, model[name])
			}
		}
	}
}

// TestModelKeysAreTheAskedVariables pins what Model and ModelOf assign:
// Model every variable of every formula given to Assert or Check, and no
// other (a constant-true assumption adds nothing); ModelOf the asked
// variables among its terms'. It holds over generated terms in incremental
// sessions, on a CopyFrom fork continuing a session, and on a solver Reset
// from one.
func TestModelKeysAreTheAskedVariables(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for iter := 0; iter < 150; iter++ {
		data := make([]byte, 64)
		rng.Read(data)
		f := smt.NewFactory()
		g := termgen.New(f, data)
		var holds []*smt.Term
		for range 8 {
			term := g.Term()
			want := smt.Eval(term, g.Env())
			switch {
			case !term.Sort().IsBool():
				term = f.Eq(term, f.BVConst(want, term.Sort().Width))
			case want.Sign() == 0:
				term = f.Not(term)
			}
			holds = append(holds, term)
		}
		// Probes mix the session's formulas with a variable nothing asks.
		probes := append([]*smt.Term{f.BVVar("never", 8)}, holds...)
		rng.Shuffle(len(probes), func(i, j int) { probes[i], probes[j] = probes[j], probes[i] })

		s := New()
		var fork *Solver
		for round := 0; round < 2; round++ {
			if round == 1 {
				// The reset solver starts a session of its own.
				s.Reset()
			}
			asked := map[string]bool{}
			for i, h := range holds {
				if i == 4 && round == 0 {
					fork = new(Solver).CopyFrom(s)
				}
				for k, c := range []*Solver{s, fork} {
					if c == nil || round == 1 && k == 1 {
						continue
					}
					var res Result
					if i%2 == 0 {
						c.Assert(h)
						res = c.Check(f.True())
					} else {
						res = c.Check(h, f.True())
					}
					if res != Sat {
						t.Fatalf("iter %d: %s, which the generator's environment satisfies, is %v", iter, h, res)
					}
				}
				maps.Copy(asked, varNames(h))
				checkModelKeys(t, s, asked, probes, "session")
				if fork != nil && round == 0 {
					checkModelKeys(t, fork, asked, probes, "fork")
				}
			}
		}
	}
}
