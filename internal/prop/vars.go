package prop

import (
	"sort"

	"bf4/internal/p4/ast"
)

// DataVars returns the resolved program-variable names a property
// expression reads — field paths plus header validity bits — sorted and
// deduplicated. Table state (hit/action_run) is excluded: those are
// per-instance control variables, not packet data. Used by the driver to
// pick which fields of a replayed witness to show.
func DataVars(e ast.Expr) []string {
	seen := map[string]bool{}
	collectVars(e, seen)
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func collectVars(e ast.Expr, seen map[string]bool) {
	switch x := e.(type) {
	case *ast.Ident, *ast.Member:
		if name, ok := varName(dotted(e)); ok {
			seen[name] = true
		}
	case *ast.CallExpr:
		if fun, ok := x.Fun.(*ast.Member); ok && fun.Name == "isValid" {
			if name, ok := varName(dotted(fun.X)); ok {
				seen[name+".$valid"] = true
			}
		}
	case *ast.UnaryExpr:
		collectVars(x.X, seen)
	case *ast.BinaryExpr:
		// The action name of an action comparison is a bare identifier,
		// which names no variable.
		collectVars(x.X, seen)
		collectVars(x.Y, seen)
	}
}
