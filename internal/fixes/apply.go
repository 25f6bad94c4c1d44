package fixes

import (
	"fmt"

	"bf4/internal/p4/ast"
	"bf4/internal/p4/parser"
	"bf4/internal/p4/types"
)

// Apply edits prog, type-checked as info, into the fixed program and
// returns the edited program's type information: every proposed key is
// appended to its table as an exact-match key spelled with the enclosing
// control's own parameter names, and the egress-spec fix (§4.6) becomes
// mark_to_drop(<standard metadata>) as the first statement of ingress.
// This is the only place a fix takes effect: the rebuild round compiles
// the edited program, and the fixed source bf4 writes is its print. An
// edit the type checker refuses is an error; with nothing to apply (fx
// nil or empty), prog and info are returned untouched.
func Apply(prog *ast.Program, info *types.Info, fx *Result) (*types.Info, error) {
	if fx == nil || len(fx.Keys) == 0 && len(fx.Special) == 0 {
		return info, nil
	}
	placed := 0
	for _, d := range prog.Decls {
		ctl, ok := d.(*ast.ControlDecl)
		if !ok {
			continue
		}
		inverse := roleInverse(info, ctl)
		for _, l := range ctl.Locals {
			td, ok := l.(*ast.TableDecl)
			if !ok || len(fx.Keys[td.Name]) == 0 {
				continue
			}
			placed++
			for _, path := range fx.Keys[td.Name] {
				expr, err := keyExprFor(path, inverse)
				if err != nil {
					return nil, fmt.Errorf("table %s: key %s: %w", td.Name, path, err)
				}
				td.Keys = append(td.Keys, &ast.TableKey{Expr: expr, MatchKind: "exact", Synthesized: true})
			}
		}
	}
	if placed != len(fx.Keys) {
		return nil, fmt.Errorf("keys proposed for %d tables, %d of them declared", len(fx.Keys), placed)
	}
	if len(fx.Special) > 0 {
		ing, smeta := info.Pipeline.Ingress, ""
		if ing != nil {
			smeta = roleInverse(info, ing)["smeta"]
		}
		if smeta == "" {
			return nil, fmt.Errorf("egress-spec fix: no ingress control with a standard_metadata_t parameter")
		}
		drop := &ast.CallStmt{Call: &ast.CallExpr{Fun: &ast.Ident{Name: "mark_to_drop"}, Args: []ast.Expr{&ast.Ident{Name: smeta}}}}
		ing.Apply.Stmts = append([]ast.Stmt{drop}, ing.Apply.Stmts...)
	}
	info, err := types.Check(prog)
	if err != nil {
		return nil, fmt.Errorf("fixed program: %w", err)
	}
	return info, nil
}

// roleInverse maps the verifier's canonical roots (hdr, meta, smeta) to
// ctl's parameter names.
func roleInverse(info *types.Info, ctl *ast.ControlDecl) map[string]string {
	inv := map[string]string{}
	headersStruct, metaStruct := info.PipelineStructs()
	for _, p := range ctl.Params {
		st, ok := info.ResolveType(p.Type).(*types.StructT)
		if !ok {
			continue
		}
		switch {
		case st.Decl.Name == "standard_metadata_t":
			inv["smeta"] = p.Name
		case st.Decl == headersStruct:
			inv["hdr"] = p.Name
		case st.Decl == metaStruct:
			inv["meta"] = p.Name
		default:
			inv[p.Name] = p.Name
		}
	}
	return inv
}

// keyExprFor parses a canonical key path and rewrites its root to the
// control's parameter name.
func keyExprFor(path string, inverse map[string]string) (ast.Expr, error) {
	e, err := parser.ParseExpr(path)
	if err != nil {
		return nil, err
	}
	rewriteRoot(e, inverse)
	return e, nil
}

func rewriteRoot(e ast.Expr, inverse map[string]string) {
	switch x := e.(type) {
	case *ast.Ident:
		if repl, ok := inverse[x.Name]; ok {
			x.Name = repl
		}
	case *ast.Member:
		rewriteRoot(x.X, inverse)
	case *ast.IndexExpr:
		rewriteRoot(x.X, inverse)
	case *ast.CallExpr:
		rewriteRoot(x.Fun, inverse)
	}
}
