package solver

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"bf4/internal/obs"
	"bf4/internal/smt"
)

// poolSession is the shape one Infer round gives a pool — a base built with
// New, one fork an assertion on up to two goroutines at once, every solver
// Put back when done — rendered as text: verdicts, models, and the search
// effort of every check to the last propagation.
func poolSession(t *testing.T, p *Pool, f *smt.Factory) string {
	t.Helper()
	basis, conds := sliceFixture(f)
	base := p.New(f)
	for _, b := range basis {
		base.Assert(b)
	}
	out := make([]string, len(conds)+1)
	out[0] = fmt.Sprintf("base: %v %+v", base.Check(), base.lastCheck.Search)
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for i, c := range conds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			s := p.Fork(base)
			defer p.Put(s)
			s.Assert(c)
			res := s.Check()
			out[i+1] = fmt.Sprintf("fork %d: %v %+v", i, res, s.lastCheck.Search)
			if res == Sat {
				out[i+1] += fmt.Sprint(" ", s.Model())
			}
		}()
	}
	wg.Wait()
	p.Put(base)
	return fmt.Sprint(out)
}

// TestPoolRecyclesLikeFresh: solvers from a pool — idle ones with a life on
// another factory's terms behind them, a registry and a tag included — answer, model and search exactly as New's and CopyFrom's do, and
// the pool says what it allocated, recycled and holds. Run under -race:
// forks are taken and put back from two goroutines.
func TestPoolRecyclesLikeFresh(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewPool(reg)

	g := smt.NewFactory()
	basis, conds := sliceFixture(g)
	dirty := []*Solver{p.New(g), p.New(g), p.New(g)}
	for i, d := range dirty {
		d.SetObs(reg)
		d.Tag("first-life", "dirty", i)
		for _, b := range basis {
			d.Assert(b)
		}
		d.Check(conds[i])    // an unsat core or a model
		d.Assert(conds[i+1]) // and an assertion of its own
		d.Check(conds[i+2])
	}
	checks := reg.CounterValue("bf4_solver_checks_total")
	p.Put(dirty...)
	if got := reg.CounterValue("bf4_solver_fresh_total"); got != 3 {
		t.Fatalf("bf4_solver_fresh_total = %d after three solvers from an empty pool, want 3", got)
	}
	held := 0
	for _, d := range dirty {
		held += d.sat.Bytes()
	}
	if got := reg.GaugeValue("bf4_solver_pool_retained_bytes"); got != int64(held) || held == 0 {
		t.Fatalf("bf4_solver_pool_retained_bytes = %d, the three idle solvers hold %d", got, held)
	}

	want := poolSession(t, nil, smt.NewFactory())
	if got := poolSession(t, p, smt.NewFactory()); got != want {
		t.Errorf("recycled solvers differ from allocated ones:\n--- allocated:\n%s\n--- recycled:\n%s", want, got)
	}
	if got := reg.CounterValue("bf4_solver_checks_total"); got != checks {
		t.Errorf("a recycled solver kept its first life's registry: %d checks recorded, were %d", got, checks)
	}
	if fresh, recycled := reg.CounterValue("bf4_solver_fresh_total"), reg.CounterValue("bf4_solver_recycled_total"); fresh != 3 || recycled != int64(len(conds))+1 {
		t.Errorf("fresh %d, recycled %d; want 3 and %d: a base and two forks at a time fit the three idle solvers", fresh, recycled, len(conds)+1)
	}

	// Released, the pool holds nothing and says so.
	p.Release()
	if got := reg.GaugeValue("bf4_solver_pool_retained_bytes"); got != 0 {
		t.Errorf("bf4_solver_pool_retained_bytes = %d after Release, want 0", got)
	}
	if p.New(smt.NewFactory()); reg.CounterValue("bf4_solver_fresh_total") != 4 {
		t.Errorf("a released pool recycled a solver: %d allocated, want 4", reg.CounterValue("bf4_solver_fresh_total"))
	}
	p.Put(dirty[0])

	// What the pool hands out is empty: no tag, no variable, no core.
	s := p.New(smt.NewFactory())
	if len(s.vars) != 0 || len(s.lastCore) != 0 || s.checks != 0 || s.sat.NumVars() != 0 || !reflect.DeepEqual(s.tag, obs.CheckRecord{Node: -1}) {
		t.Errorf("a solver from the pool is not empty: %d vars, core %v, %d checks, %d SAT vars, tag %+v", len(s.vars), s.lastCore, s.checks, s.sat.NumVars(), s.tag)
	}
}

// TestNilPoolAllocates: the nil pool is solver.New and CopyFrom, and Put on it
// keeps nothing.
func TestNilPoolAllocates(t *testing.T) {
	var p *Pool
	f := smt.NewFactory()
	x := f.BVVar("x", 8)
	a := p.New(f)
	a.Assert(f.Ult(x, f.BVConst64(10, 8)))
	b := p.Fork(a)
	p.Put(a, b, nil)
	b.Assert(f.Ugt(x, f.BVConst64(20, 8)))
	if ra, rb := a.Check(), b.Check(); ra != Sat || rb != Unsat {
		t.Fatalf("after Put on a nil pool: original %v, fork %v; want sat, unsat", ra, rb)
	}
	if c := p.New(f); c == a || c == b {
		t.Fatal("a nil pool handed a solver out twice")
	}
}
