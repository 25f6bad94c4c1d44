// Command terms breaks the term contract on the lines marked "want" and
// keeps it everywhere else.
package main

import (
	"errors"
	"sync"

	"fixture/internal/smt"
)

// ring has a method named like a constructor: calls to it are not reported.
type ring struct{}

func (ring) Eq(a, b int) bool { return a == b }

// shim's Apply returns an error, which may not be dropped.
type shim struct{}

func (*shim) Apply(update int) error {
	if update < 0 {
		return errors.New("negative update")
	}
	return nil
}

// lower builds a term and checks its operand: called for the check alone,
// it is not reported, because it is not the factory's.
func lower(f *smt.Factory, x *smt.Term) *smt.Term {
	if x == nil {
		panic("lower: nil operand")
	}
	return f.Not(x)
}

func main() {
	f := &smt.Factory{}
	x := f.Var("x")
	lit := smt.Term{} // want: smt.Term composite literal
	_ = lit
	_ = *x == smt.Term{}      // want: comparing; smt.Term composite literal
	_ = x != &smt.Term{}      // want: comparing; smt.Term composite literal
	f.Eq(x, x)                // want: result of (*internal/smt.Factory).Eq
	f.Ite(x, x, x)            // want: result of (*internal/smt.Factory).Ite
	f.And(x, x)               // want: result of (*internal/smt.Factory).And
	(f.Not(x))                // want: result of (*internal/smt.Factory).Not
	smt.Substitute(f, x, nil) // want: result of internal/smt.Substitute
	f.Apply("not", x)         // want: result of (*internal/smt.Factory).Apply
	new(shim).Apply(1)        // want: error of (*cmd/terms.shim).Apply
	if _, err := f.Apply("and", x); err != nil {
		_ = f.Eq(x, lower(f, x))
	}

	var wg sync.WaitGroup
	wg.Add(1)
	wg.Done()
	wg.Wait()
	ring{}.Eq(1, 2)
	lower(f, x)
	aliased(f)
}
