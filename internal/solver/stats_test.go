package solver

import (
	"fmt"
	"testing"

	"bf4/internal/obs"
	"bf4/internal/smt"
)

// distinct asserts pairwise distinctness of n fresh 8-bit variables (a
// satisfiable constraint that still requires search) and returns a
// pigeonhole assumption set — every variable below n-1 — that is jointly
// unsatisfiable with it. Keeping the unsat half in assumptions leaves the
// solver usable for later checks.
func distinct(f *smt.Factory, s *Solver, tag string, n int) []*smt.Term {
	vars := make([]*smt.Term, n)
	for i := range vars {
		vars[i] = f.BVVar(fmt.Sprintf("%s_x%d", tag, i), 8)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s.Assert(f.Not(f.Eq(vars[i], vars[j])))
		}
	}
	pigeon := make([]*smt.Term, n)
	for i, v := range vars {
		pigeon[i] = f.Ult(v, f.BVConst64(int64(n-1), 8))
	}
	return pigeon
}

// TestCheckStatsAreDeltas is the regression test for per-query solver
// statistics: two sequential checks on ONE solver must report independent
// deltas, not cumulative totals. Under solver reuse (the bug-finding
// solver serving hundreds of queries, worker pools sharing a recheck
// solver) cumulative counters misattribute the first query's work to
// every later one.
func TestCheckStatsAreDeltas(t *testing.T) {
	f := smt.NewFactory()
	s := New(f)
	pigeon := distinct(f, s, "a", 6)
	vars, clauses := s.sat.NumVars(), s.sat.NumClauses()
	if res := s.Check(pigeon...); res != Unsat {
		t.Fatalf("first check = %v, want unsat", res)
	}
	first := s.lastCheck
	if first.Result != Unsat {
		t.Fatalf("first stats result = %v", first.Result)
	}
	if first.Search.Propagations == 0 {
		t.Fatal("first check reports no propagations; formula too easy for the test")
	}
	if s.sat.NumVars() == vars || s.sat.NumClauses() == clauses {
		t.Fatalf("first check grew no CNF: %+v", first)
	}

	// Second check: a trivially satisfiable independent query. Its delta
	// must NOT include the first check's work.
	y := f.BVVar("y", 8)
	cond := f.Eq(y, f.BVConst64(3, 8))
	if res := s.Check(cond); res != Sat {
		t.Fatalf("second check = %v, want sat", res)
	}
	second := s.lastCheck
	if second.Result != Sat {
		t.Fatalf("second stats result = %v", second.Result)
	}
	if second.Search.Propagations >= first.Search.Propagations {
		t.Fatalf("second check's stats look cumulative, not delta:\nfirst  %+v\nsecond %+v",
			first.Search, second.Search)
	}
	// A delta can never go negative.
	for name, v := range map[string]int64{
		"conflicts":    second.Search.Conflicts,
		"propagations": second.Search.Propagations,
		"decisions":    second.Search.Decisions,
		"restarts":     second.Search.Restarts,
		"learned":      second.Search.Learned,
	} {
		if v < 0 {
			t.Errorf("%s delta negative: %d", name, v)
		}
	}
}

// TestCheckStatsSumToCumulative: the per-check deltas across a sequence
// must add up to the solver's cumulative totals — nothing double-counted,
// nothing dropped.
func TestCheckStatsSumToCumulative(t *testing.T) {
	f := smt.NewFactory()
	s := New(f)
	pigeon := distinct(f, s, "a", 6)
	// Assert-time unit propagation (clauses added outside any Check) is
	// deliberately attributed to no check; measure from here.
	_, _, baseConflicts, baseProps := s.Stats()

	var sumConflicts, sumProps int64
	add := func() {
		d := s.lastCheck.Search
		sumConflicts += d.Conflicts
		sumProps += d.Propagations
	}
	s.Check(pigeon...)
	add()
	for i := 0; i < 3; i++ {
		s.Check(f.Eq(f.BVVar(fmt.Sprintf("q%d", i), 8), f.BVConst64(int64(i), 8)))
		add()
	}
	_, _, conflicts, props := s.Stats()
	conflicts -= baseConflicts
	props -= baseProps
	if conflicts != sumConflicts || props != sumProps {
		t.Fatalf("deltas do not sum to cumulative: conflicts %d vs %d, propagations %d vs %d",
			sumConflicts, conflicts, sumProps, props)
	}
}

// TestSolverObsRecording: with a registry installed, counters accumulate
// delta-per-check values and the verdicts are unchanged.
func TestSolverObsRecording(t *testing.T) {
	run := func(reg *obs.Registry) []Result {
		f := smt.NewFactory()
		s := New(f)
		s.SetObs(reg)
		pigeon := distinct(f, s, "a", 5)
		var out []Result
		out = append(out, s.Check(pigeon...))
		out = append(out, s.Check(f.Eq(f.BVVar("z", 8), f.BVConst64(1, 8))))
		return out
	}

	reg := obs.NewRegistry()
	withObs := run(reg)
	without := run(nil)
	for i := range withObs {
		if withObs[i] != without[i] {
			t.Fatalf("check %d verdict differs with obs on: %v vs %v", i, withObs[i], without[i])
		}
	}
	if got := reg.CounterValue("bf4_solver_checks_total"); got != 2 {
		t.Fatalf("checks counter = %d, want 2", got)
	}
	if reg.CounterValue("bf4_solver_unsat_total") != 1 || reg.CounterValue("bf4_solver_sat_total") != 1 {
		t.Fatalf("verdict counters wrong: unsat=%d sat=%d",
			reg.CounterValue("bf4_solver_unsat_total"), reg.CounterValue("bf4_solver_sat_total"))
	}
	if reg.CounterValue("bf4_solver_propagations_total") == 0 {
		t.Fatal("propagation counter empty")
	}
	h := reg.Histogram("bf4_solver_check_conflicts", obs.CountBuckets)
	if h.Count() != 2 {
		t.Fatalf("conflict histogram count = %d, want 2", h.Count())
	}
	// The CNF size travels with each check's record, not in a gauge
	// that whichever solver checked last would overwrite.
	if cs := reg.SlowestChecks(); len(cs) == 0 || cs[0].CNFVars == 0 || cs[0].CNFClauses == 0 {
		t.Fatalf("slowest checks carry no CNF size: %+v", cs)
	}
}

// TestFirstCheckIsMarked: the slowest-checks table and the two first-check
// counters name cold starts — the first check since New or Reset. A copy
// carries its source's count, so a fork of a solver that has checked is warm
// and a fork of one that has not is as cold as its source.
func TestFirstCheckIsMarked(t *testing.T) {
	f := smt.NewFactory()
	reg := obs.NewRegistry()
	s := New(f)
	s.SetObs(reg)
	pigeon := distinct(f, s, "a", 5)

	cold := new(Solver).CopyFrom(s)
	cold.Tag("test", "fork of an unchecked solver", -1)
	s.Tag("test", "fresh", -1)
	s.Check(pigeon...)
	firstConflicts := s.lastCheck.Search.Conflicts
	s.Tag("test", "second", -1)
	s.Check()
	warm := new(Solver).CopyFrom(s)
	warm.Tag("test", "fork of a checked solver", -1)
	warm.Check()
	cold.Check()
	firstConflicts += cold.lastCheck.Search.Conflicts
	s.Reset(f).SetObs(reg)
	s.Tag("test", "reset", -1)
	s.Check()

	want := map[string]bool{
		"fresh": true, "second": false, "fork of a checked solver": false,
		"fork of an unchecked solver": true, "reset": true,
	}
	for _, c := range reg.SlowestChecks() {
		if first, ok := want[c.Solver]; !ok || first != c.First {
			t.Errorf("check %q: first = %v, want %v (known: %v)", c.Solver, c.First, first, ok)
		}
		delete(want, c.Solver)
	}
	if len(want) != 0 {
		t.Errorf("checks missing from the table: %v", want)
	}
	if got := reg.CounterValue("bf4_solver_first_checks_total"); got != 3 {
		t.Errorf("bf4_solver_first_checks_total = %d, want 3", got)
	}
	if got := reg.CounterValue("bf4_solver_first_check_conflicts_total"); got != firstConflicts || got == 0 {
		t.Errorf("bf4_solver_first_check_conflicts_total = %d, the first checks' deltas sum to %d (want it non-zero)", got, firstConflicts)
	}
}
