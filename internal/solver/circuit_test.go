package solver

import (
	"testing"

	"bf4/internal/sat"
	"bf4/internal/smt"
	"bf4/internal/smt/termgen"
)

// phase returns the saved phase of literal l: the value the solver's next
// decision on it tries first. Level-0 facts, the constant among them, and
// every variable of the last model read their value.
func (c *Solver) phase(l sat.Lit) bool { return c.sat.Phase(l.Var()) != l.Sign() }

// FuzzCircuit drives incremental sessions over termgen terms. Each round
// takes the next generated term t and the generator's value v of it: even
// rounds assert t = v, odd rounds ask it as an assumption. From the fourth
// round on, the session continues on a CopyFrom fork as well, given the same
// calls. The generator's environment satisfies every such query, so each
// must answer Sat; after each answer the model value of every term blasted
// so far must be what smt.Eval gives under the model's variables, and the
// fork must answer, model and all, as the original does.
func FuzzCircuit(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{0, 7, 0x42, 0x13, 0x99, 0x7f, 0x80, 0x01, 0xfe, 0x33, 0x21, 0x55, 0xaa, 0x0f, 0xf0, 0x3c, 0xc3, 0x18, 0x81, 0x66})
	f.Add([]byte{3, 250, 17, 9, 128, 64, 32, 16, 8, 4, 2, 1, 0, 255, 200, 150, 100, 50, 25, 12, 6, 3, 1, 77, 88, 99})
	f.Fuzz(func(t *testing.T, data []byte) {
		fac := smt.NewFactory()
		g := termgen.New(fac, data)
		c := New()
		var fork *Solver
		for round := 0; round < 8; round++ {
			term := g.Term()
			want := smt.Eval(term, g.Env())
			holds := term
			switch {
			case !term.Sort().IsBool():
				holds = fac.Eq(term, fac.BVConst(want, term.Sort().Width))
			case want.Sign() == 0:
				holds = fac.Not(term)
			}
			if round == 4 {
				fork = new(Solver).CopyFrom(c)
			}
			for i, ctx := range []*Solver{c, fork} {
				if ctx == nil {
					continue
				}
				var assume []sat.Lit
				if round%2 == 0 {
					ctx.Assert(holds)
				} else {
					assume = append(assume, ctx.literal(holds))
				}
				if res := ctx.sat.Solve(assume...); res != sat.Sat {
					t.Fatalf("round %d, solver %d: %s = %v, which the generator's environment satisfies, is %v", round, i, term, want, res)
				}
				checkModel(t, ctx, round)
			}
			if fork != nil {
				for u := range c.lit {
					if c.value(u).Cmp(fork.value(u)) != 0 {
						t.Fatalf("round %d: the fork's model differs from the original's at %s", round, u)
					}
				}
				for u := range c.bv {
					if c.value(u).Cmp(fork.value(u)) != 0 {
						t.Fatalf("round %d: the fork's model differs from the original's at %s", round, u)
					}
				}
			}
		}
	})
}

// checkModel holds c's last model to the circuit: every term blasted so far
// reads what smt.Eval gives under the model's values of its variables.
func checkModel(t *testing.T, c *Solver, round int) {
	t.Helper()
	env := smt.Env{}
	var blasted []*smt.Term
	for u := range c.lit {
		blasted = append(blasted, u)
	}
	for u := range c.bv {
		blasted = append(blasted, u)
	}
	for _, u := range blasted {
		for _, v := range u.Vars(nil) {
			env.Set(v.Name(), c.value(v))
		}
	}
	for _, u := range blasted {
		if got, want := c.value(u), smt.Eval(u, env); got.Cmp(want) != 0 {
			t.Fatalf("round %d: the model gives %s the value %v, Eval %v", round, u, got, want)
		}
	}
}
