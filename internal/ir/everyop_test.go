package ir

import (
	"math/rand"
	"testing"

	"bf4/internal/bitblast"
	"bf4/internal/sat"
	"bf4/internal/smt"
)

// TestEveryOpEverywhere is the exhaustiveness gate for the term language:
// it enumerates the operator numbering, builds a minimal term of every
// operator over variables, and runs it through every layer that switches
// on smt.Op — Eval, LowerBool + Program.Eval, Serialize → Parse, the
// bit-blaster (inputs pinned, outputs read from the model) and the taint
// transfer — checking each against Eval. A layer that lacks
// an arm for an operator panics or disagrees here; an operator added to
// the table without a minimal term fails the enumeration. It lives in
// this package because the taint transfer is the builder's.
func TestEveryOpEverywhere(t *testing.T) {
	const w = 8
	p := NewProgram("everyop")
	f := p.F
	sorts := smt.VarSorts{}
	var bools, vecs []*smt.Term
	for _, name := range []string{"p", "q", "r"} {
		bools = append(bools, p.NewVar(name, smt.BoolSort).Term)
		sorts[name] = smt.BoolSort
	}
	for _, name := range []string{"x", "y", "z"} {
		vecs = append(vecs, p.NewVar(name, smt.BV(w)).Term)
		sorts[name] = smt.BV(w)
	}
	vars := append(append([]*smt.Term{}, bools...), vecs...)

	// minimal finds a well-sorted application of op over distinct
	// variables by asking the table: every argument-sort and index shape
	// up to three arguments is offered to Apply.
	minimal := func(op smt.Op) *smt.Term {
		for n := 1; n <= 3; n++ {
			for shape := 0; shape < 1<<n; shape++ {
				args := make([]*smt.Term, n)
				for i := range args {
					if shape>>i&1 == 0 {
						args[i] = bools[i]
					} else {
						args[i] = vecs[i]
					}
				}
				for _, idx := range [][]int{nil, {3}, {5, 2}} {
					if term, err := f.Apply(op, args, idx...); err == nil && term.Op() == op {
						return term
					}
				}
			}
		}
		return nil
	}
	leaves := map[smt.Op]*smt.Term{
		smt.OpTrue:  f.True(),
		smt.OpFalse: f.False(),
		smt.OpVar:   vecs[0],
		smt.OpConst: f.BVConst64(0xa5, w),
	}

	rng := rand.New(rand.NewSource(18))
	seen := 0
	for op := smt.Op(0); op < smt.NumOps; op++ {
		if op.String() == "" {
			continue // the reserved slot
		}
		seen++
		term := leaves[op]
		if term == nil {
			term = minimal(op)
		}
		if term == nil {
			t.Errorf("%v: no minimal well-sorted application found", op)
			continue
		}

		// Serialize → Parse is the identity on interned terms.
		if back, err := smt.Parse(f, smt.Serialize(term), sorts); err != nil || back != term {
			t.Errorf("%v: Parse(Serialize(%s)) = %v, %v", op, term, back, err)
		}

		// Taint transfer: a shadow-typed term that is clean when every
		// input is, and tainted when every input is.
		b := &builder{p: p}
		taint := b.taintOf(term)
		if taint.Sort() != term.Sort() {
			t.Errorf("%v: taint of %s has sort %v", op, term, taint.Sort())
		}
		clean, dirty := smt.Env{}, smt.Env{}
		for _, v := range vars {
			dirty.Set(v.Name()+TaintSuffix, smt.Mask(w))
		}
		if smt.Eval(taint, clean).Sign() != 0 {
			t.Errorf("%v: clean inputs taint %s", op, term)
		}
		if len(term.Args()) > 0 && smt.Eval(taint, dirty).Sign() == 0 {
			t.Errorf("%v: tainted inputs leave %s clean", op, term)
		}

		for trial := 0; trial < 16; trial++ {
			env := smt.Env{}
			for _, v := range vars {
				env.SetUint64(v.Name(), rng.Uint64()&(1<<w-1)>>uint(trial%2*6)) // small values half the time: shifts in range
			}
			want := smt.Eval(term, env)

			// The uint64 kernel, through a boolean root.
			root := term
			if !term.Sort().IsBool() {
				root = f.Eq(term, f.BVConst(want, term.Sort().Width))
			}
			slots := map[string]int{}
			prog, err := smt.LowerBool(root, len(vars), func(name string, _ smt.Sort) (int, error) {
				for i, v := range vars {
					if v.Name() == name {
						slots[name] = i
						return i, nil
					}
				}
				return -1, nil
			})
			if err != nil {
				t.Fatalf("%v: LowerBool(%s): %v", op, root, err)
			}
			regs := make([]uint64, prog.NumRegs())
			for name, i := range slots {
				regs[i] = env[name].Uint64()
				if sorts[name].IsBool() && regs[i] != 0 {
					regs[i] = 1
				}
			}
			if got := prog.Eval(regs); got != smt.EvalBool(root, env) {
				t.Errorf("%v: Program.Eval(%s) = %v under %v", op, root, got, env)
			}

			// The circuit: pin the inputs, solve, read the output.
			c := bitblast.New(f, sat.New())
			for _, v := range vars {
				val := smt.Eval(v, env)
				if v.Sort().IsBool() {
					c.AssertTrue(f.Eq(v, f.Bool(val.Sign() != 0)))
				} else {
					c.AssertTrue(f.Eq(v, f.BVConst(val, w)))
				}
			}
			if term.Sort().IsBool() {
				c.Literal(term)
			} else {
				c.Bits(term)
			}
			if c.Solver().Solve() != sat.Sat {
				t.Fatalf("%v: pinned circuit of %s is not satisfiable", op, term)
			}
			if got := c.ModelValue(term); got.Cmp(want) != 0 {
				t.Errorf("%v: circuit of %s computes %v, Eval %v, under %v", op, term, got, want, env)
			}
		}
	}
	if seen != int(smt.NumOps)-1 {
		t.Errorf("enumerated %d operators, want %d", seen, int(smt.NumOps)-1)
	}
}
