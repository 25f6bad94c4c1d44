package solver

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"bf4/internal/sat"
	"bf4/internal/smt"
	"bf4/internal/smt/termgen"
)

// blastTerm blasts t, boolean or bitvector.
func blastTerm(c *Solver, t *smt.Term) {
	if t.Sort().IsBool() {
		c.literal(t)
	} else {
		c.bits(t)
	}
}

// phaseValue reads the value of blasted term t at the solver's saved phases.
func phaseValue(c *Solver, t *smt.Term) *big.Int {
	v := new(big.Int)
	if t.Sort().IsBool() {
		if c.phase(c.lit[t]) {
			v.SetInt64(1)
		}
		return v
	}
	for i, l := range c.bv[t] {
		if c.phase(l) {
			v.SetBit(v, i, 1)
		}
	}
	return v
}

// checkPoint holds c's solver to the principle at the point env: every term
// blasted so far reads smt.Eval under env at the saved phases; a Solve with
// no assumption then answers Sat without one conflict — following the phases
// it never contradicts a gate definition — and its model is that point.
func checkPoint(t *testing.T, c *Solver, env smt.Env, where string) {
	t.Helper()
	var blasted []*smt.Term
	for u := range c.lit {
		blasted = append(blasted, u)
	}
	for u := range c.bv {
		blasted = append(blasted, u)
	}
	each := func(read func(*smt.Term) *big.Int, what string) {
		t.Helper()
		for _, u := range blasted {
			if got, want := read(u), smt.Eval(u, env); got.Cmp(want) != 0 {
				t.Fatalf("%s: %s of %s is %v, Eval %v under %v", where, what, u, got, want, env)
			}
		}
	}
	each(func(u *smt.Term) *big.Int { return phaseValue(c, u) }, "saved phase")
	before := c.sat.Conflicts()
	if res := c.sat.Solve(); res != sat.Sat {
		t.Fatalf("%s: a circuit with nothing asserted is %v", where, res)
	}
	if n := c.sat.Conflicts() - before; n != 0 {
		t.Fatalf("%s: %d conflict(s) descending the saved phases of a circuit with nothing asserted", where, n)
	}
	each(c.value, "model")
}

// TestFreshPhasesAreTheCircuitAtItsInputs pins what sat.newGate promises, over
// generated terms of every operator: the saved phases of a solver are the
// circuit evaluated at its input bits' phases. On a fresh solver that is the
// all-zeros input; with the input bits' phases set beforehand it is that
// input; after a Sat answer it is the answer's model, for the gates blasted
// before it (the search left their values) and after it (newGate computes
// them) alike.
func TestFreshPhasesAreTheCircuitAtItsInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for iter := 0; iter < 1500; iter++ {
		data := make([]byte, 48)
		rng.Read(data)
		f := smt.NewFactory()
		g := termgen.New(f, data)
		first, second := g.Term(), g.Term()

		// The all-zeros point.
		c := New()
		blastTerm(c, first)
		checkPoint(t, c, smt.Env{}, fmt.Sprintf("iter %d, fresh solver", iter))

		// A random input point, set before any gate is built.
		c = New()
		env := smt.Env{}
		for _, v := range first.Vars(nil) {
			if v.Sort().IsBool() {
				bit := rng.Intn(2) == 1
				c.sat.SetPhase(c.literal(v).Var(), bit)
				env.SetBool(v.Name(), bit)
				continue
			}
			val := new(big.Int)
			for i, l := range c.bits(v) {
				bit := rng.Intn(2) == 1
				c.sat.SetPhase(l.Var(), bit)
				if bit {
					val.SetBit(val, i, 1)
				}
			}
			env.Set(v.Name(), val)
		}
		blastTerm(c, first)
		checkPoint(t, c, env, fmt.Sprintf("iter %d, input phases set", iter))

		// A model: the answer under an assumption about the first term, then
		// the second term blasted on top of it.
		c = New()
		blastTerm(c, first)
		var assume sat.Lit
		if first.Sort().IsBool() {
			assume = c.literal(first)
		} else {
			assume = c.bits(first)[0]
		}
		if c.sat.Solve(assume) != sat.Sat && c.sat.Solve(assume.Neg()) != sat.Sat {
			t.Fatalf("iter %d: %s can be neither true nor false", iter, first)
		}
		env = smt.Env{}
		for _, v := range first.Vars(nil) {
			env.Set(v.Name(), c.value(v))
		}
		blastTerm(c, second)
		checkPoint(t, c, env, fmt.Sprintf("iter %d, after a model", iter))
	}
}
