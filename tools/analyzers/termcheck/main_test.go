package main

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// checkSrc analyzes a single source text.
func checkSrc(src string) ([]finding, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "src.go", src, 0)
	if err != nil {
		return nil, err
	}
	return checkFile(fset, file), nil
}

func mustFindings(t *testing.T, src string) []finding {
	t.Helper()
	fs, err := checkSrc(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return fs
}

func TestFlagsTermLiteral(t *testing.T) {
	src := `package p
import "bf4/internal/smt"
func f() *smt.Term {
	t := &smt.Term{}
	return t
}`
	fs := mustFindings(t, src)
	if len(fs) != 1 || !strings.Contains(fs[0].msg, "composite literal") {
		t.Fatalf("want 1 composite-literal finding, got %v", fs)
	}
}

func TestFlagsLiteralComparison(t *testing.T) {
	src := `package p
import "bf4/internal/smt"
func f(x *smt.Term) bool {
	return *x == smt.Term{}
}`
	fs := mustFindings(t, src)
	// Both the comparison and the literal itself are flagged.
	if len(fs) != 2 {
		t.Fatalf("want 2 findings (comparison + literal), got %v", fs)
	}
	found := false
	for _, f := range fs {
		if strings.Contains(f.msg, "never pointer-equals") {
			found = true
		}
	}
	if !found {
		t.Fatalf("comparison finding missing: %v", fs)
	}
}

func TestFlagsDiscardedConstructor(t *testing.T) {
	src := `package p
func f(fac interface{ Eq(a, b int) int }) {
	fac.Eq(1, 2)
}`
	fs := mustFindings(t, src)
	if len(fs) != 1 || !strings.Contains(fs[0].msg, "discarded") {
		t.Fatalf("want 1 discard finding, got %v", fs)
	}
}

func TestAllowsFactoryUsage(t *testing.T) {
	src := `package p
import "bf4/internal/smt"
func f(fac *smt.Factory, a, b *smt.Term) *smt.Term {
	eq := fac.Eq(a, b)
	if a == b { // pointer comparison of interned terms is the point
		return eq
	}
	return fac.Ite(eq, a, b)
}`
	if fs := mustFindings(t, src); len(fs) != 0 {
		t.Fatalf("clean code flagged: %v", fs)
	}
}

func TestAmbiguousNamesNotFlagged(t *testing.T) {
	src := `package p
import "sync"
func f() {
	var wg sync.WaitGroup
	wg.Add(1) // Add is deliberately not in the discard set
	wg.Done()
}`
	if fs := mustFindings(t, src); len(fs) != 0 {
		t.Fatalf("wg.Add flagged: %v", fs)
	}
}
