package infer

import (
	"fmt"

	"bf4/internal/core"
	"bf4/internal/ir"
	"bf4/internal/smt"
	"bf4/internal/solver"
)

// UserAssertion parses a user-authored forbidden-rule condition for a
// table and verifies it is safe: it must not exclude any good run (the
// paper's §4.6 names user-defined annotations as an unimplemented
// extension; safety is Theorem 7.1's side condition, checked here with
// the solver). The condition is an S-expression over the table's control
// variables, e.g.
//
//	(and |pcn_nat$0.hit| (= |pcn_nat$0.key1| (_ bv0 1)))
//
// On success the returned assertion composes with the inferred ones; if
// the condition would block a rule some good run needs, an error
// describing a witness is returned.
func UserAssertion(pl *core.Pipeline, table string, forbidden string) (*Assertion, error) {
	var inst *ir.TableInstance
	for _, i := range pl.IR.Instances {
		if i.Table.Name == table {
			inst = i
			break
		}
	}
	if inst == nil {
		return nil, fmt.Errorf("infer: unknown table %q", table)
	}

	sorts := smt.VarSorts{}
	for name := range controlledSet(inst) {
		v := pl.IR.Vars[name]
		sorts[name] = v.Sort
	}
	f := pl.IR.F
	term, err := smt.Parse(f, forbidden, sorts)
	if err != nil {
		return nil, fmt.Errorf("infer: table %s: %w (conditions may only use the table's control variables)", table, err)
	}
	if !term.Sort().IsBool() {
		return nil, fmt.Errorf("infer: table %s: condition is %v, want Bool", table, term.Sort())
	}
	if !termControlled(pl.IR, term, controlledSet(inst)) {
		return nil, fmt.Errorf("infer: table %s: condition uses non-control variables", table)
	}

	// Safety: no good run through the assert point may satisfy the
	// forbidden shape (otherwise blocking it removes behaviour the
	// program needs).
	ok := f.And(pl.FullReach.OK, f.Not(pl.FullReach.DontCareReach))
	reachAP := pl.FullReach.Cond[inst.Apply]
	s := solver.New(f)
	s.Assert(f.And(ok, reachAP, term))
	if s.Check() == solver.Sat {
		m := s.Model()
		detail := ""
		for name := range sorts {
			if v, okv := m[name]; okv {
				detail += fmt.Sprintf(" %s=%v", name, v)
			}
		}
		return nil, fmt.Errorf("infer: table %s: unsafe annotation — a good run uses a rule matching it (witness:%s)", table, detail)
	}
	return &Assertion{Instance: inst, Forbidden: []*smt.Term{term}, Source: "user"}, nil
}
