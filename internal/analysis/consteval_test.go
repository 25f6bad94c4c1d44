package analysis

import (
	"fmt"
	"testing"

	"bf4/internal/smt"
)

// TestRangeFoldExhaustive holds rangeFold to concrete evaluation at widths
// 1–4: every constant against a full-width variable and against the zero
// extension, from every narrower width, of a variable and of a bvadd, under
// both operators with the constant on either side. A comparison the rule
// decides must equal smt.EvalBool on every assignment. Each of these
// operands takes every value of the range the rule gives it, so the rule
// must also decide every comparison that is constant over the assignments:
// a bound that is too wide shows as a comparison left undecided.
func TestRangeFoldExhaustive(t *testing.T) {
	f := smt.NewFactory()
	decided, undecided := 0, 0
	for w := 1; w <= 4; w++ {
		operands := []*smt.Term{f.BVVar(fmt.Sprintf("v%d", w), w)}
		for n := 1; n < w; n++ {
			x, y := f.BVVar(fmt.Sprintf("x%d", n), n), f.BVVar(fmt.Sprintf("y%d", n), n)
			operands = append(operands, f.ZExt(x, w), f.ZExt(f.Add(x, y), w))
		}
		for _, e := range operands {
			envs := assignments(e.Vars(nil))
			for c := int64(0); c < 1<<w; c++ {
				k := f.BVConst64(c, w)
				for _, term := range []*smt.Term{f.Ult(k, e), f.Ult(e, k), f.Ule(k, e), f.Ule(e, k)} {
					got := rangeFold(f, term)
					var takes [2]bool
					for _, env := range envs {
						v := smt.EvalBool(term, env)
						if isLiteral(got) && v != got.IsTrue() {
							t.Fatalf("rangeFold(%s) = %s, but it evaluates to %v under %v", term, got, v, env)
						}
						takes[boolIndex(v)] = true
					}
					switch {
					case isLiteral(got):
						decided++
					case takes[0] != takes[1]:
						t.Fatalf("rangeFold leaves %s undecided, but it is %v on every assignment", term, takes[1])
					default:
						undecided++
					}
				}
			}
		}
	}
	t.Logf("%d comparisons decided, %d left as they are", decided, undecided)
}

// assignments enumerates every assignment of the bitvector variables vars.
func assignments(vars []*smt.Term) []smt.Env {
	envs := []smt.Env{{}}
	for _, v := range vars {
		var next []smt.Env
		for _, env := range envs {
			for x := uint64(0); x < 1<<v.Sort().Width; x++ {
				e := smt.Env{}
				for name, val := range env {
					e[name] = val
				}
				e.SetUint64(v.Name(), x)
				next = append(next, e)
			}
		}
		envs = next
	}
	return envs
}

func boolIndex(b bool) int {
	if b {
		return 1
	}
	return 0
}
