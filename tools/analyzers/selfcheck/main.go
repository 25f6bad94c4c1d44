// Command selfcheck holds the module to two contracts, over one go/types
// check of its non-test files (cmd/, bench/, examples/ and tools/ are
// production too), the module and the standard library checked from source.
//
// Production code is what production calls. It lists the functions and
// methods no non-test file references, so only tests, or nothing, reach
// them; a function's references to itself do not count, and a method
// through which a module type satisfies an interface (String, Error,
// Transfer, ...) is never listed. allow.txt keeps what stays on purpose,
// one key or package path a line with its reason; a report no line covers,
// or a line that covers no report, exits 1, so the list only shrinks.
//
// Terms come from the factory. smt.Term values are hash-consed: every
// structurally equal term is one pointer, which is exactly what makes
// pointer comparison, map keys, and the memo tables keyed by a term's
// factory-unique id sound. The contract breaks if code builds a Term
// outside the factory or compares against a freshly built struct, and a
// dropped constructor result is always a bug, so three misuses exit 1,
// each matched by its types.Object, never by name:
//
//   - a composite literal of type smt.Term outside internal/smt itself:
//     interning, and with it pointer equality, silently breaks;
//   - an == or != against such a literal or its address: a fresh struct
//     never pointer-equals an interned term;
//   - a call statement that drops the *smt.Term a function or method of
//     internal/smt returns (every Factory constructor, Substitute, Parse:
//     they intern and return, so the built term is lost), or the error of
//     one of the module's Apply functions.
//
// A module function outside internal/smt that returns a term may be called
// for its side effects. Run: go run ./tools/analyzers/selfcheck .
package main

import (
	_ "embed"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

//go:embed allow.txt
var allowTxt string

func main() {
	l, err := load(append(os.Args[1:], ".")[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "selfcheck:", err)
		os.Exit(2)
	}
	if lines := append(unallowed(l.unreached(), allowTxt), l.termContract()...); len(lines) > 0 {
		fmt.Println(strings.Join(lines, "\n"))
		os.Exit(1)
	}
}

// entry is one listed function or method: its types.Func.FullName and its
// package path, both relative to the module.
type entry struct {
	key, pkg string
	pos      token.Position
}

// unallowed returns, sorted, a line for every entry the allow list
// (allow.txt's text: blank lines, # comments and lines of a pattern and a
// reason) does not cover, and for every pattern that covers no entry.
func unallowed(entries []entry, allow string) []string {
	used := map[string]bool{}
	for _, line := range strings.Split(allow, "\n") {
		if p, _, _ := strings.Cut(strings.TrimSpace(line), " "); p != "" && p[0] != '#' {
			used[p] = false
		}
	}
	var lines []string
	for _, e := range entries {
		if _, ok := used[e.key]; ok {
			used[e.key] = true
		} else if _, ok := used[e.pkg]; ok {
			used[e.pkg] = true
		} else {
			lines = append(lines, fmt.Sprintf("%s: %s: no production code references it", e.pos, e.key))
		}
	}
	for p, covers := range used {
		if !covers {
			lines = append(lines, "allow.txt: "+p+" covers no report: delete the line")
		}
	}
	sort.Strings(lines)
	return lines
}

// pkg is one package directory's non-test files, and their check.
type pkg struct {
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loader imports the module's packages, each checked once from its files,
// and the standard library's from source: one set of objects for all.
type loader struct {
	module string
	fset   *token.FileSet
	std    types.Importer
	pkgs   map[string]*pkg // by import path
}

func (l *loader) Import(p string) (*types.Package, error) {
	pk := l.pkgs[p]
	if pk == nil {
		return l.std.Import(p)
	}
	var err error
	if pk.types == nil {
		pk.info = &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		pk.types, err = (&types.Config{Importer: l}).Check(p, l.fset, pk.files, pk.info)
	}
	return pk.types, err
}

// load parses and type-checks the module rooted at root.
func load(root string) (*loader, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	f := strings.Fields(string(gomod))
	if err != nil || len(f) < 2 || f[0] != "module" {
		return nil, fmt.Errorf("%s/go.mod: want a module line first (%v)", root, err)
	}
	fset := token.NewFileSet()
	build.Default.CgoEnabled = false // packages with cgo check from their pure-Go files
	l := &loader{module: f[1], fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*pkg{}}
	if err := l.parse(root); err != nil {
		return nil, err
	}
	for p := range l.pkgs {
		if _, err := l.Import(p); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// rel strips the module prefix from a package path or a full name.
func (l *loader) rel(s string) string { return strings.ReplaceAll(s, l.module+"/", "") }

// unreached returns the module's entries, sorted by key.
func (l *loader) unreached() []entry {
	decls, refs := map[string]entry{}, map[string]bool{}
	for p, pk := range l.pkgs {
		for _, f := range pk.files {
			for _, d := range f.Decls {
				self := "" // a function's references to itself do not count
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name != "_" {
					self = pk.info.Defs[fd.Name].(*types.Func).FullName()
					if fd.Recv != nil || fd.Name.Name != "main" && fd.Name.Name != "init" {
						decls[self] = entry{key: l.rel(self), pkg: l.rel(p), pos: l.fset.Position(fd.Pos())}
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := pk.info.Uses[id].(*types.Func); ok && fn.Origin().FullName() != self {
							refs[fn.Origin().FullName()] = true
						}
					}
					return true
				})
			}
		}
	}
	exempt := l.interfaceMethods()
	var out []entry
	for k, e := range decls {
		if !refs[k] && !exempt[k] {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// termContract returns, sorted, a line for every breach of the term
// contract (see the package comment) in the module's non-test files.
func (l *loader) termContract() []string {
	smtPath := l.module + "/internal/smt"
	var term types.Type = types.Typ[types.Invalid] // identical to no type a file can name
	if smt := l.pkgs[smtPath]; smt != nil {
		term = smt.types.Scope().Lookup("Term").Type()
	}
	errType := types.Universe.Lookup("error").Type()
	returns := func(fn *types.Func, t types.Type) bool {
		res := fn.Type().(*types.Signature).Results()
		for i := 0; i < res.Len(); i++ {
			if types.Identical(res.At(i).Type(), t) {
				return true
			}
		}
		return false
	}
	var lines []string
	report := func(n ast.Node, format string, args ...any) {
		lines = append(lines, fmt.Sprintf("%s: %s", l.fset.Position(n.Pos()), fmt.Sprintf(format, args...)))
	}
	for p, pk := range l.pkgs {
		isLiteral := func(e ast.Expr) bool { // a Term literal or its address
			if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && u.Op == token.AND {
				e = u.X
			}
			lit, ok := ast.Unparen(e).(*ast.CompositeLit)
			return ok && types.Identical(pk.info.TypeOf(lit), term)
		}
		for _, f := range pk.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.CompositeLit:
					if p != smtPath && isLiteral(x) {
						report(x, "smt.Term composite literal: terms must be built through factory constructors (hash-consing breaks otherwise)")
					}
				case *ast.BinaryExpr:
					if p != smtPath && (x.Op == token.EQL || x.Op == token.NEQ) && (isLiteral(x.X) || isLiteral(x.Y)) {
						report(x, "comparing a term with a freshly-built smt.Term struct: a fresh struct never pointer-equals an interned term")
					}
				case *ast.ExprStmt:
					call, ok := ast.Unparen(x.X).(*ast.CallExpr)
					if !ok {
						break
					}
					fun := ast.Unparen(call.Fun)
					if sel, ok := fun.(*ast.SelectorExpr); ok {
						fun = sel.Sel
					}
					id, _ := fun.(*ast.Ident)
					fn, _ := pk.info.Uses[id].(*types.Func)
					switch {
					case fn == nil || fn.Pkg() == nil:
					case fn.Pkg().Path() == smtPath && returns(fn, types.NewPointer(term)):
						report(x, "result of %s discarded: it only builds a term, and the term is lost", l.rel(fn.FullName()))
					case fn.Name() == "Apply" && l.pkgs[fn.Pkg().Path()] != nil && returns(fn, errType):
						report(x, "error of %s discarded", l.rel(fn.FullName()))
					}
				}
				return true
			})
		}
	}
	sort.Strings(lines)
	return lines
}

// parse parses the non-test Go files of every package directory under
// root, testdata and hidden directories aside.
func (l *loader) parse(root string) error {
	return filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if _, ok := err.(*build.NoGoError); ok || err == nil && len(bp.GoFiles) == 0 {
			return nil
		} else if err != nil {
			return err
		}
		pk := &pkg{}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				return err
			}
			pk.files = append(pk.files, f)
		}
		rel, err := filepath.Rel(root, dir)
		l.pkgs[path.Join(l.module, filepath.ToSlash(rel))] = pk
		return err
	})
}

// reachedAnyway declares error and the interfaces errors.Is, As and Unwrap
// assert on without naming them.
const reachedAnyway = `package errors
type (
	err            interface{ Error() string }
	unwrapper      interface{ Unwrap() error }
	multiUnwrapper interface{ Unwrap() []error }
	iser           interface{ Is(error) bool }
	aser           interface{ As(any) bool }
)`

// interfaceMethods returns the methods, promoted ones included, through
// which a module type or a pointer to it satisfies a named interface of a
// package the module reaches or of reachedAnyway.
func (l *loader) interfaceMethods() map[string]bool {
	var ifaces []*types.Interface
	var concrete []types.Type
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if ok && types.IsInterface(tn.Type()) {
				ifaces = append(ifaces, tn.Type().Underlying().(*types.Interface))
			} else if ok && l.pkgs[p.Path()] != nil {
				concrete = append(concrete, tn.Type(), types.NewPointer(tn.Type()))
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	f, _ := parser.ParseFile(l.fset, "errors.go", reachedAnyway, 0)
	errs, _ := new(types.Config).Check("errors", l.fset, []*ast.File{f}, nil)
	walk(errs)
	for _, pk := range l.pkgs {
		if pk.types != nil {
			walk(pk.types)
		}
	}
	exempt := map[string]bool{}
	for _, t := range concrete {
		ms := types.NewMethodSet(t)
		for _, it := range ifaces {
			if !types.Implements(t, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				exempt[ms.Lookup(m.Pkg(), m.Name()).Obj().(*types.Func).FullName()] = true
			}
		}
	}
	return exempt
}
