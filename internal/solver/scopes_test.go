package solver

import (
	"testing"

	"bf4/internal/smt"
)

// TestPushPopScopes: assertions made inside a push/pop scope must stop
// constraining the solver after pop, while outer assertions persist.
func TestPushPopScopes(t *testing.T) {
	f := smt.NewFactory()
	s := New(f)
	x := f.BVVar("x", 8)
	s.Assert(f.Eq(x, f.BVConst64(1, 8)))
	if res := s.Check(); res != Sat {
		t.Fatalf("base: got %v, want Sat", res)
	}

	s.push()
	s.Assert(f.Eq(x, f.BVConst64(2, 8))) // contradicts x == 1
	if res := s.Check(); res != Unsat {
		t.Fatalf("inside scope: got %v, want Unsat", res)
	}
	s.pop()

	if res := s.Check(); res != Sat {
		t.Fatalf("after pop: got %v, want Sat — scoped assertion leaked", res)
	}
	if v := s.Model()["x"].Int64(); v != 1 {
		t.Fatalf("model x=%d, want 1 (outer assertion must persist)", v)
	}
}

// TestNestedScopes: inner pops retract only the innermost assertions.
func TestNestedScopes(t *testing.T) {
	f := smt.NewFactory()
	s := New(f)
	x := f.BVVar("x", 8)

	s.push()
	s.Assert(f.Ult(x, f.BVConst64(10, 8)))
	s.push()
	s.Assert(f.Ugt(x, f.BVConst64(20, 8))) // contradicts x < 10
	if res := s.Check(); res != Unsat {
		t.Fatalf("inner: got %v, want Unsat", res)
	}
	if n := len(s.scopes); n != 2 {
		t.Fatalf("open scopes = %d, want 2", n)
	}
	s.pop()
	if res := s.Check(); res != Sat {
		t.Fatalf("after inner pop: got %v, want Sat", res)
	}
	if v := s.Model()["x"].Int64(); v >= 10 {
		t.Fatalf("model x=%d violates still-open outer scope x<10", v)
	}
	s.pop()
	if n := len(s.scopes); n != 0 {
		t.Fatalf("open scopes = %d, want 0", n)
	}
	// Everything retracted: x is unconstrained again.
	if res := s.Check(f.Ugt(x, f.BVConst64(200, 8))); res != Sat {
		t.Fatalf("after both pops: got %v, want Sat", res)
	}
}

// TestScopesDoNotPolluteUnsatCore: activation literals for open scopes
// are internal bookkeeping and must never show up in an unsat core.
func TestScopesDoNotPolluteUnsatCore(t *testing.T) {
	f := smt.NewFactory()
	s := New(f)
	x := f.BVVar("x", 8)
	s.push()
	s.Assert(f.Ult(x, f.BVConst64(5, 8)))
	a := f.Ugt(x, f.BVConst64(10, 8))
	if res := s.Check(a); res != Unsat {
		t.Fatalf("got %v, want Unsat", res)
	}
	core := s.UnsatCore()
	if len(core) != 1 || core[0] != a {
		t.Fatalf("core %v, want exactly the caller's assumption", core)
	}
	s.pop()
}

// TestPopWithoutPushPanics: a scope-accounting bug must fail loudly.
func TestPopWithoutPushPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("pop without push did not panic")
		}
	}()
	s := New(smt.NewFactory())
	s.pop()
}
