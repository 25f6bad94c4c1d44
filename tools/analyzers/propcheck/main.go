// Command propcheck is a repository self-check analyzer enforcing the
// exhaustiveness of the property-DSL expression walkers. The DSL's AST
// (internal/prop/ast.go) is a closed set of *Expr struct kinds, and
// three files each contain a type switch that must cover every kind:
//
//   - internal/prop/check.go types each expression against the lowered
//     program. A missing case would report "unsupported expression"
//     (or worse, mistype) instead of handling a newly added kind.
//   - internal/prop/compile.go lowers checked expressions to smt terms.
//     A missing case panics at instrumentation time.
//   - internal/prop/vars.go collects the data variables an expression
//     reads for witness rendering. A missing case silently drops
//     variables from witnesses — the quietest failure of the three.
//
// The check is purely syntactic: it collects the exported struct types
// named *Expr declared in ast.go, then scans the three walker files for
// `case *Kind:` clauses. The walkers live in the same package as the
// AST, so case expressions are bare identifiers under a star
// (`*PathExpr`), not package selectors. Missing names fail
// the build. Stdlib-only (go/ast + go/parser); CI runs it as
// `go run ./tools/analyzers/propcheck .`.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// walkerFiles lists, per file, what a missing case breaks.
var walkerFiles = []struct{ file, consequence string }{
	{"internal/prop/check.go", "typechecking rejects the kind"},
	{"internal/prop/compile.go", "compilation panics on the kind"},
	{"internal/prop/vars.go", "witnesses silently omit its variables"},
}

func main() {
	root := "."
	for _, a := range os.Args[1:] {
		if a != "./..." && a != "." {
			root = a
		}
	}

	kinds, err := exprStructs(filepath.Join(root, "internal/prop/ast.go"))
	if err != nil {
		fatalf("%v", err)
	}
	if len(kinds) == 0 {
		fatalf("no *Expr struct types found — did internal/prop/ast.go move?")
	}

	var problems []string
	for _, wf := range walkerFiles {
		cases, err := starCaseIdents(filepath.Join(root, wf.file))
		if err != nil {
			fatalf("%v", err)
		}
		for _, k := range kinds {
			if !cases[k] {
				problems = append(problems,
					fmt.Sprintf("%s: *%s has no explicit case (%s)", wf.file, k, wf.consequence))
			}
		}
	}

	sort.Strings(problems)
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "propcheck: %d missing expression case(s)\n", len(problems))
		os.Exit(1)
	}
}

// exprStructs collects the exported struct type names ending in "Expr"
// declared in file. The Expr interface itself is excluded (it is not a
// struct), as are unexported helpers.
func exprStructs(file string) ([]string, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, nil, 0)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok {
				continue
			}
			if _, isStruct := ts.Type.(*ast.StructType); !isStruct {
				continue
			}
			name := ts.Name.Name
			if ast.IsExported(name) && strings.HasSuffix(name, "Expr") {
				names = append(names, name)
			}
		}
	}
	sort.Strings(names)
	return names, nil
}

// starCaseIdents collects every identifier appearing as `*Ident` in a
// case clause expression anywhere in file (the shape of same-package
// type-switch cases over pointer-to-struct kinds).
func starCaseIdents(file string) (map[string]bool, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, nil, 0)
	if err != nil {
		return nil, err
	}
	out := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		cc, ok := n.(*ast.CaseClause)
		if !ok {
			return true
		}
		for _, e := range cc.List {
			star, ok := e.(*ast.StarExpr)
			if !ok {
				continue
			}
			if id, ok := star.X.(*ast.Ident); ok {
				out[id.Name] = true
			}
		}
		return true
	})
	return out, nil
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "propcheck: "+format+"\n", args...)
	os.Exit(2)
}
