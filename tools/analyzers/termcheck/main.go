// Command termcheck is a repository self-check analyzer enforcing the
// smt.Term usage contract in our own Go code. Terms are hash-consed:
// every structurally equal term is one pointer, which is exactly what
// makes pointer comparison, map keys, and the memo tables keyed by a
// term's factory-unique id sound. The contract breaks if code builds a
// Term outside the factory or compares against a freshly-built struct,
// so three misuses are flagged:
//
//   - a `Term{...}` / `&Term{...}` / `smt.Term{...}` composite literal
//     anywhere outside internal/smt itself — terms must come from
//     factory constructors, or interning (and with it pointer equality)
//     silently breaks;
//   - an == or != comparison where either side is such a composite
//     literal — a fresh struct never pointer-equals an interned term,
//     so the comparison is vacuously false/true;
//   - a statement that calls an unambiguous factory constructor and
//     discards the result — constructors are pure (they intern and
//     return; they never mutate the factory observably), so a discarded
//     result is always a bug, usually a missing assignment.
//
// Only constructor names unique to the factory are checked for the
// discard rule (Ite, Eq, BVAnd, Extract, ...), plus Apply, whose other
// receivers in this repository return an error that must not be dropped
// either. Generic names that collide with common stdlib methods (Add,
// Not, And, Or, Xor, Mul, Sub, Neg, Bool, Var) are deliberately excluded:
// flagging wg.Add(1) or big.Int.Not would drown the signal in false
// positives.
//
// It is stdlib-only (go/ast + go/parser) and runs in CI
// as `go run ./tools/analyzers/termcheck .`.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

type finding struct {
	pos token.Position
	msg string
}

// discardable lists factory constructor names unique enough that a call
// statement discarding the result is always a bug. See the package
// comment for why ambiguous names (Add, Not, ...) are excluded.
var discardable = map[string]bool{
	"Ite": true, "Eq": true, "Distinct": true, "Implies": true, "Iff": true,
	"Ult": true, "Ule": true, "Ugt": true, "Uge": true,
	"Slt": true, "Sle": true,
	"BVAnd": true, "BVOr": true, "BVXor": true, "BVNot": true,
	"Shl": true, "Lshr": true, "Ashr": true,
	"Concat": true, "Extract": true, "ZExt": true, "SExt": true, "Resize": true,
	"BVConst": true, "BVConst64": true, "BoolVar": true, "BVVar": true,
	"Apply": true,
}

func main() {
	root := "."
	for _, a := range os.Args[1:] {
		if a != "./..." && a != "." {
			root = a
		}
	}
	findings, err := checkDir(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "termcheck: %v\n", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Printf("%s: %s\n", f.pos, f.msg)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "termcheck: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

func checkDir(root string) ([]finding, error) {
	var findings []finding
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == ".git" || name == "testdata" || (strings.HasPrefix(name, ".") && path != root) {
				return filepath.SkipDir
			}
			// internal/smt is the factory: it is the one place allowed to
			// build Term structs directly.
			if filepath.ToSlash(path) == filepath.ToSlash(filepath.Join(root, "internal/smt")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
		findings = append(findings, checkFile(fset, file)...)
		return nil
	})
	return findings, err
}

func checkFile(fset *token.FileSet, file *ast.File) []finding {
	c := &checker{fset: fset}
	ast.Inspect(file, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CompositeLit:
			if c.isTermType(x.Type) {
				c.report(x.Pos(), "smt.Term composite literal: terms must be built through factory constructors (hash-consing breaks otherwise)")
			}
		case *ast.BinaryExpr:
			if x.Op == token.EQL || x.Op == token.NEQ {
				if c.isTermLiteral(x.X) || c.isTermLiteral(x.Y) {
					c.report(x.Pos(), "comparing a term with a freshly-built smt.Term struct: a fresh struct never pointer-equals an interned term")
				}
			}
		case *ast.ExprStmt:
			if name, ok := c.factoryCall(x.X); ok {
				c.report(x.Pos(), "result of factory constructor %s discarded: constructors are pure, the built term is lost", name)
			}
		}
		return true
	})
	return c.findings
}

type checker struct {
	fset     *token.FileSet
	findings []finding
}

func (c *checker) report(pos token.Pos, format string, args ...interface{}) {
	c.findings = append(c.findings, finding{c.fset.Position(pos), fmt.Sprintf(format, args...)})
}

// isTermType matches the type expression of a composite literal naming
// the term struct: Term or smt.Term (any package alias ending in the
// selector Term is treated as the real thing — the repo has exactly one
// type of that name).
func (c *checker) isTermType(t ast.Expr) bool {
	switch x := t.(type) {
	case *ast.Ident:
		return x.Name == "Term"
	case *ast.SelectorExpr:
		return x.Sel.Name == "Term"
	}
	return false
}

// isTermLiteral matches Term{...}, &Term{...}, smt.Term{...} and
// &smt.Term{...} expressions (with or without parens).
func (c *checker) isTermLiteral(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return c.isTermType(x.Type)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			if cl, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
				return c.isTermType(cl.Type)
			}
		}
	}
	return false
}

// factoryCall matches a discarded x.Ctor(...) method call where Ctor is
// an unambiguous factory constructor name.
func (c *checker) factoryCall(e ast.Expr) (string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if !discardable[sel.Sel.Name] {
		return "", false
	}
	return sel.Sel.Name, true
}
