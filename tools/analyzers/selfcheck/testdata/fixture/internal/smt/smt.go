// Package smt stands in for the module's term package, which the term
// contract finds by its path: hash-consed terms and their factory.
package smt

import "errors"

// Term is comparable so that the comparisons the contract forbids compile.
type Term struct {
	op   string
	a, b *Term
}

type Factory struct{ terms map[Term]*Term }

// intern builds the one Term of its structure: literals are the factory's.
func (f *Factory) intern(t Term) *Term {
	if f.terms == nil {
		f.terms = map[Term]*Term{}
	}
	if u := f.terms[t]; u != nil {
		return u
	}
	u := &Term{op: t.op, a: t.a, b: t.b}
	f.terms[t] = u
	return u
}

func (f *Factory) Var(name string) *Term { return f.intern(Term{op: name}) }
func (f *Factory) Not(a *Term) *Term     { return f.intern(Term{op: "not", a: a}) }
func (f *Factory) And(a, b *Term) *Term  { return f.intern(Term{op: "and", a: a, b: b}) }
func (f *Factory) Eq(a, b *Term) *Term   { return f.intern(Term{op: "=", a: a, b: b}) }
func (f *Factory) Ite(c, a, b *Term) *Term {
	return f.Not(f.And(f.Not(f.And(c, a)), f.Not(f.And(f.Not(c), b))))
}
func (f *Factory) Apply(op string, a *Term) (*Term, error) {
	if op != "not" {
		return nil, errors.New("unknown op " + op)
	}
	return f.Not(a), nil
}

// Substitute replaces the subterms subst names.
func Substitute(f *Factory, t *Term, subst map[*Term]*Term) *Term {
	if u, ok := subst[t]; ok || t == nil {
		return u
	}
	return f.intern(Term{op: t.op, a: Substitute(f, t.a, subst), b: Substitute(f, t.b, subst)})
}
