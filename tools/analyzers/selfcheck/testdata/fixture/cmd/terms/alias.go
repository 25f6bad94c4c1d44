package main

import term "fixture/internal/smt"

func aliased(f *term.Factory) *term.Term {
	if t := (term.Term{}); t == *f.Var("y") { // want: smt.Term composite literal
		return nil
	}
	return &term.Term{} // want: smt.Term composite literal
}
