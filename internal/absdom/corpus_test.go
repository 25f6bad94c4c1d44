package absdom_test

import (
	"math/big"
	"math/rand"
	"sort"
	"testing"

	"bf4/internal/absdom"
	"bf4/internal/core"
	"bf4/internal/driver"
	"bf4/internal/ir"
	"bf4/internal/progs"
	"bf4/internal/smt"
)

// TestContainmentOnCorpusConditions holds the domain to the terms the
// verifier builds: for every corpus program (and switch@1 outside -short), in
// the pipeline of round 0 and in that of the last round, every subterm c of
// every sliced reachability condition and of the OK formula satisfies
// Eval(c, env) ∈ γ(Of(c)) — under the witness model of each bug the round
// found reachable, and under seeded random environments. Subterms are checked
// bottom-up, so a failure names the first node whose arguments were all
// contained.
func TestContainmentOnCorpusConditions(t *testing.T) {
	type program struct{ name, src string }
	var programs []program
	for _, p := range progs.All() {
		if p.Name != "switch" {
			programs = append(programs, program{p.Name, p.Source})
		} else if !testing.Short() {
			programs = append(programs, program{"switch@1", progs.GenerateSwitch(1)})
		}
	}
	witnesses, checked := 0, 0
	for i, p := range programs {
		t.Run(p.name, func(t *testing.T) {
			res, err := driver.Run(p.name, p.src, driver.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(i)))
			check := func(round string, pl *core.Pipeline, rep *core.Report) {
				nodes := make([]*ir.Node, 0, len(pl.Reach.Cond))
				for n := range pl.Reach.Cond {
					nodes = append(nodes, n)
				}
				sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
				roots := []*smt.Term{pl.FullReach.OK}
				for _, n := range nodes {
					roots = append(roots, pl.Reach.Cond[n])
				}
				var envs []smt.Env
				for _, b := range rep.Bugs {
					if b.Reachable {
						envs = append(envs, b.Model)
						witnesses++
					}
				}
				for range 4 {
					envs = append(envs, randomEnv(rng, roots))
				}
				a := absdom.NewAnalyzer()
				for k, env := range envs {
					order, val := evalAll(roots, env)
					checked += len(order)
					for _, c := range order {
						if v := a.Of(c); !v.Contains(val[c]) {
							t.Fatalf("%s, environment %d of %d: Eval = %v not in %s for %.400s",
								round, k, len(envs), val[c], v, c)
						}
					}
				}
			}
			check("round 0", res.Initial, res.InitialRep)
			if res.Fixed != nil {
				pl, rep, _ := res.Final()
				check("last round", pl, rep)
			}
		})
	}
	t.Logf("%d witness models; %d (subterm, environment) pairs", witnesses, checked)
	if witnesses == 0 {
		t.Fatal("no reachable bug lent a witness: only random environments were tried")
	}
}

// randomEnv assigns every variable of roots a value drawn from rng, in the
// order of their names so a seed fixes the environment.
func randomEnv(rng *rand.Rand, roots []*smt.Term) smt.Env {
	var vars []*smt.Term
	seen := map[uint32]bool{}
	for _, r := range roots {
		vars = r.VarsSeen(vars, seen)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i].Name() < vars[j].Name() })
	env := make(smt.Env, len(vars))
	for _, v := range vars {
		if v.Sort().IsBool() {
			env.SetBool(v.Name(), rng.Intn(2) == 1)
		} else {
			env.Set(v.Name(), new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(v.Sort().Width))))
		}
	}
	return env
}

// evalAll evaluates every subterm of roots under env in one pass over the
// DAG and returns them in post-order with their values. A node's value is
// smt.Eval of the node rebuilt, in a scratch factory, over constants holding
// its arguments' values.
func evalAll(roots []*smt.Term, env smt.Env) ([]*smt.Term, map[*smt.Term]*big.Int) {
	g := smt.NewFactory()
	val := map[*smt.Term]*big.Int{}
	var order []*smt.Term
	var visit func(t *smt.Term)
	visit = func(t *smt.Term) {
		if _, done := val[t]; done {
			return
		}
		if len(t.Args()) == 0 {
			val[t] = smt.Eval(t, env)
		} else {
			args := make([]*smt.Term, len(t.Args()))
			for i, a := range t.Args() {
				visit(a)
				if a.Sort().IsBool() {
					args[i] = g.Bool(val[a].Sign() != 0)
				} else {
					args[i] = g.BVConst(val[a], a.Sort().Width)
				}
			}
			u, err := g.Apply(t.Op(), args, t.Indices()...)
			if err != nil {
				panic(err)
			}
			val[t] = smt.Eval(u, nil)
		}
		order = append(order, t)
	}
	for _, r := range roots {
		visit(r)
	}
	return order, val
}
