package prop

import (
	"fmt"
	"sort"
	"strings"

	"bf4/internal/ir"
	"bf4/internal/p4/ast"
	"bf4/internal/p4/token"
	"bf4/internal/smt"
)

// vkind is the type kind of a property expression.
type vkind int

const (
	vBool   vkind = iota
	vBV           // sized bit-vector
	vInt          // unsized integer literal, adapts to a sized operand
	vAction       // opaque action selector of a table instance
)

// typed is a property expression's type and its term over the program's
// version-0 variables (passification later rewrites them to SSA versions
// along with the rest of the IR). An unsized literal gets its term once
// its sibling fixes the width; an action selector never has one — only
// its comparison with an action name does.
type typed struct {
	kind  vkind
	width int               // vBV
	inst  *ir.TableInstance // vAction
	lit   *ast.IntLit       // vInt
	term  *smt.Term
}

func boolean(t *smt.Term) typed     { return typed{kind: vBool, term: t} }
func bits(w int, t *smt.Term) typed { return typed{kind: vBV, width: w, term: t} }

func (t typed) String() string {
	switch t.kind {
	case vBool:
		return "bool"
	case vBV:
		return fmt.Sprintf("bit<%d>", t.width)
	case vInt:
		return "int"
	default:
		return fmt.Sprintf("action selector of %s", t.inst.Table.Name)
	}
}

// predicate types one property expression against a lowered program
// and builds its term in the same recursion, with the factory calls of
// a typecheck followed by a compile. anchor, when non-nil, is the table
// instance the property is spliced behind (@after): hit/action_run
// references to the anchor's table resolve to that exact instance;
// references to other tables resolve to the last instance in program
// order. The P4 operators outside the property subset (casts, ternaries,
// indexes, shifts, *, /, %, ++) are refused here, not by the parser.
type predicate struct {
	p      *ir.Program
	anchor *ir.TableInstance
	file   string
}

// property types and builds the whole predicate, which must be boolean.
func (c *predicate) property(pr *Property) (*smt.Term, error) {
	t, err := c.expr(pr.Expr)
	if err != nil {
		return nil, err
	}
	if t.kind != vBool {
		return nil, c.errorf(at(pr.Expr), "property predicate has type %s, want bool", t)
	}
	return t.term, nil
}

// at is where a diagnostic about e points. The P4 AST places a Member
// at its '.' and a CallExpr at its '('; a property names the root
// identifier of a path or call.
func at(e ast.Expr) token.Pos {
	for {
		switch x := e.(type) {
		case *ast.Member:
			e = x.X
		case *ast.CallExpr:
			e = x.Fun
		default:
			return e.Pos()
		}
	}
}

func (c *predicate) errorf(pos token.Pos, format string, args ...interface{}) error {
	return fmt.Errorf("%s: %s", Pos{File: c.file, Line: pos.Line, Col: pos.Col}, fmt.Sprintf(format, args...))
}

func (c *predicate) expr(e ast.Expr) (typed, error) {
	f := c.p.F
	switch x := e.(type) {
	case *ast.Ident, *ast.Member:
		name, text, err := c.path(e)
		if err != nil {
			return typed{}, err
		}
		v, ok := c.p.Vars[name]
		switch {
		case !ok:
			return typed{}, c.errorf(at(e), "no field %q in the program (resolved to %q)", text, name)
		case v.Sort.IsBool():
			return boolean(v.Term), nil
		}
		return bits(v.Sort.Width, v.Term), nil

	case *ast.IntLit:
		switch {
		case x.Width == 0:
			return typed{kind: vInt, lit: x}, nil
		case x.Val.BitLen() > x.Width:
			return typed{}, c.errorf(x.P, "literal %s does not fit in bit<%d>", x.Val, x.Width)
		}
		return bits(x.Width, f.BVConst(x.Val, x.Width)), nil

	case *ast.BoolLit:
		return boolean(f.Bool(x.Val)), nil

	case *ast.CallExpr:
		return c.call(x)

	case *ast.UnaryExpr:
		t, err := c.expr(x.X)
		switch {
		case err != nil:
			return typed{}, err
		case x.Op == token.NOT && t.kind != vBool:
			return typed{}, c.errorf(at(x.X), "operand of ! has type %s, want bool", t)
		case x.Op == token.NOT:
			return boolean(f.Not(t.term)), nil
		case t.kind != vBV:
			return typed{}, c.errorf(at(x.X), "operand of %s has type %s, want a sized bit-vector", x.Op, t)
		case x.Op == token.TILDE:
			return bits(t.width, f.BVNot(t.term)), nil
		}
		return bits(t.width, f.Neg(t.term)), nil

	case *ast.BinaryExpr:
		return c.binary(x)

	case *ast.CastExpr:
		return typed{}, c.errorf(x.P, "a cast is not allowed in a property")
	case *ast.TernaryExpr:
		return typed{}, c.errorf(x.P, "?: is not allowed in a property")
	case *ast.IndexExpr:
		return typed{}, c.errorf(x.P, "indexing is not allowed in a property")
	}
	return typed{}, c.errorf(e.Pos(), "%s is not allowed in a property", ast.PrintExpr(e))
}

// dotted spells an Ident/Member chain (hdr.ipv4.ttl) as its parts, or
// returns nil.
func dotted(e ast.Expr) []string {
	switch x := e.(type) {
	case *ast.Ident:
		return []string{x.Name}
	case *ast.Member:
		if parts := dotted(x.X); parts != nil {
			return append(parts, x.Name)
		}
	}
	return nil
}

// varName maps a path onto the lowered variable namespace;
// standard_metadata is an alias for the internal smeta prefix.
func varName(parts []string) (string, bool) {
	if len(parts) < 2 {
		return "", false
	}
	root := parts[0]
	switch root {
	case "standard_metadata":
		root = "smeta"
	case "hdr", "meta", "smeta":
	default:
		return "", false
	}
	return root + "." + strings.Join(parts[1:], "."), true
}

// path resolves an Ident/Member chain to a variable name; text is the
// path as written.
func (c *predicate) path(e ast.Expr) (name, text string, err error) {
	parts := dotted(e)
	if parts == nil {
		// A Member of something that is not a path: report what is wrong
		// with that receiver first, then that it is one.
		m := e.(*ast.Member)
		for inner, ok := m.X.(*ast.Member); ok; inner, ok = m.X.(*ast.Member) {
			m = inner
		}
		if _, err := c.expr(m.X); err != nil {
			return "", "", err
		}
		return "", "", c.errorf(m.P, "cannot select field %q of a non-path expression", m.Name)
	}
	text = strings.Join(parts, ".")
	name, ok := varName(parts)
	switch {
	case ok:
		return name, text, nil
	case len(parts) < 2:
		return "", "", c.errorf(at(e), "%q is not a field reference; paths start with hdr., meta. or standard_metadata.", text)
	}
	return "", "", c.errorf(at(e), "unknown name %q; paths start with hdr., meta. or standard_metadata.", parts[0])
}

// call resolves the builtins: hit(t), miss(t) (that is, !hit(t)),
// action_run(t) and <header>.isValid().
func (c *predicate) call(x *ast.CallExpr) (typed, error) {
	switch fun := x.Fun.(type) {
	case *ast.Ident:
		if fun.Name != "hit" && fun.Name != "miss" && fun.Name != "action_run" {
			break
		}
		var table *ast.Ident
		switch {
		case len(x.Args) == 0:
			return typed{}, c.errorf(x.P, "expected table name in %s(...)", fun.Name)
		case len(x.Args) == 1:
			table, _ = x.Args[0].(*ast.Ident)
		}
		if table == nil {
			return typed{}, c.errorf(at(x.Args[0]), "expected table name in %s(...)", fun.Name)
		}
		inst, err := c.instance(table.Name, fun.P)
		switch {
		case err != nil:
			return typed{}, err
		case fun.Name == "hit":
			return boolean(inst.HitVar.Term), nil
		case fun.Name == "miss":
			return boolean(c.p.F.Not(inst.HitVar.Term)), nil
		}
		return typed{kind: vAction, inst: inst}, nil

	case *ast.Member:
		if fun.Name != "isValid" {
			break
		}
		switch fun.X.(type) {
		case *ast.Ident, *ast.Member:
		default:
			return typed{}, c.errorf(fun.P, "isValid() requires a header path receiver")
		}
		if len(x.Args) != 0 {
			return typed{}, c.errorf(x.P, "isValid() takes no arguments")
		}
		name, text, err := c.path(fun.X)
		if err != nil {
			return typed{}, err
		}
		h, ok := c.p.Headers[name]
		if !ok {
			return typed{}, c.errorf(at(x), "%q is not a header, cannot take isValid()", text)
		}
		return boolean(h.Valid.Term), nil
	}
	return typed{}, c.errorf(at(x), "%s(...) is not allowed in a property; the calls are hit, miss, action_run and isValid", ast.PrintExpr(x.Fun))
}

// instancesOf returns the expansion instances of the named table in
// program order, or an error naming the known tables when absent.
func instancesOf(p *ir.Program, table string, pos Pos) ([]*ir.TableInstance, error) {
	var out []*ir.TableInstance
	for _, inst := range p.Instances {
		if inst.Table.Name == table {
			out = append(out, inst)
		}
	}
	if len(out) == 0 {
		known := make([]string, 0, len(p.Tables))
		for name := range p.Tables {
			known = append(known, name)
		}
		sort.Strings(known)
		return nil, fmt.Errorf("%s: unknown table %q (known: %s)", pos, table, strings.Join(known, ", "))
	}
	return out, nil
}

// instance picks the instance a hit/action_run reference at pos binds
// to: the anchor instance when the property is anchored @after the same
// table, otherwise the last apply of that table.
func (c *predicate) instance(table string, pos token.Pos) (*ir.TableInstance, error) {
	if c.anchor != nil && c.anchor.Table.Name == table {
		return c.anchor, nil
	}
	insts, err := instancesOf(c.p, table, Pos{File: c.file, Line: pos.Line, Col: pos.Col})
	if err != nil {
		return nil, err
	}
	return insts[len(insts)-1], nil
}

// actionCompare recognizes `action_run(t) == name` / `name != action_run(t)`
// shapes: it returns the action_run call and the other operand, or nils.
func actionCompare(x *ast.BinaryExpr) (*ast.CallExpr, ast.Expr) {
	for _, pair := range [2][2]ast.Expr{{x.X, x.Y}, {x.Y, x.X}} {
		if call, ok := pair[0].(*ast.CallExpr); ok {
			if fun, ok := call.Fun.(*ast.Ident); ok && fun.Name == "action_run" {
				return call, pair[1]
			}
		}
	}
	return nil, nil
}

// binops builds the term of each binary operator a property admits;
// comparisons are unsigned.
var binops = map[token.Kind]func(f *smt.Factory, x, y *smt.Term) *smt.Term{
	token.ARROW:  (*smt.Factory).Implies,
	token.OR:     func(f *smt.Factory, x, y *smt.Term) *smt.Term { return f.Or(x, y) },
	token.AND:    func(f *smt.Factory, x, y *smt.Term) *smt.Term { return f.And(x, y) },
	token.EQ:     (*smt.Factory).Eq,
	token.NEQ:    (*smt.Factory).Distinct,
	token.LANGLE: (*smt.Factory).Ult,
	token.LEQ:    (*smt.Factory).Ule,
	token.RANGLE: func(f *smt.Factory, x, y *smt.Term) *smt.Term { return f.Ult(y, x) },
	token.GEQ:    func(f *smt.Factory, x, y *smt.Term) *smt.Term { return f.Ule(y, x) },
	token.PIPE:   (*smt.Factory).BVOr,
	token.CARET:  (*smt.Factory).BVXor,
	token.AMP:    (*smt.Factory).BVAnd,
	token.PLUS:   (*smt.Factory).Add,
	token.MINUS:  (*smt.Factory).Sub,
}

func (c *predicate) binary(x *ast.BinaryExpr) (typed, error) {
	build := binops[x.Op]
	if build == nil {
		return typed{}, c.errorf(x.P, "operator %s is not allowed in a property", x.Op)
	}
	if x.Op == token.EQ || x.Op == token.NEQ {
		// An action comparison's other operand is a bare action name,
		// not a field path.
		if run, name := actionCompare(x); run != nil {
			return c.actionIs(x, run, name)
		}
	}
	tx, err := c.expr(x.X)
	if err != nil {
		return typed{}, err
	}
	ty, err := c.expr(x.Y)
	if err != nil {
		return typed{}, err
	}
	if tx.kind == vAction || ty.kind == vAction {
		return typed{}, c.errorf(x.P, "action_run(...) may only be compared (==/!=) against an action name")
	}
	w := 0 // the result's width; 0 for a boolean result
	switch x.Op {
	case token.ARROW, token.OR, token.AND:
		if tx.kind != vBool || ty.kind != vBool {
			err = c.errorf(x.P, "operands of %s have types %s and %s, want bool", x.Op, tx, ty)
		}
	case token.EQ, token.NEQ:
		if tx.kind != vBool || ty.kind != vBool {
			_, err = c.adapt(x, &tx, &ty)
		}
	case token.LANGLE, token.LEQ, token.RANGLE, token.GEQ:
		_, err = c.adapt(x, &tx, &ty)
	default: // |, ^, &, +, -
		w, err = c.adapt(x, &tx, &ty)
	}
	if err != nil {
		return typed{}, err
	}
	t := build(c.p.F, tx.term, ty.term)
	if w == 0 {
		return boolean(t), nil
	}
	return bits(w, t), nil
}

// adapt unifies the widths of a bit-vector binary operation, sizing an
// unsized literal to the other operand.
func (c *predicate) adapt(x *ast.BinaryExpr, tx, ty *typed) (int, error) {
	switch {
	case tx.kind == vBV && ty.kind == vBV && tx.width == ty.width:
		return tx.width, nil
	case tx.kind == vBV && ty.kind == vInt:
		return tx.width, c.size(ty, tx.width)
	case tx.kind == vInt && ty.kind == vBV:
		return ty.width, c.size(tx, ty.width)
	case tx.kind == vInt && ty.kind == vInt:
		return 0, c.errorf(x.P, "cannot infer a width for %s between two unsized literals; size one (e.g. 8w%s)", x.Op, tx.lit.Val)
	}
	return 0, c.errorf(x.P, "operands of %s have types %s and %s, want bit-vectors of one width", x.Op, tx, ty)
}

// size gives an unsized literal the width of its sibling.
func (c *predicate) size(t *typed, width int) error {
	if t.lit.Val.BitLen() > width {
		return c.errorf(t.lit.P, "literal %s does not fit in bit<%d>", t.lit.Val, width)
	}
	*t = bits(width, c.p.F.BVConst(t.lit.Val, width))
	return nil
}

// actionIs builds `action_run(t) == name` (or !=): the instance's action
// selector against the action's index.
func (c *predicate) actionIs(x *ast.BinaryExpr, run *ast.CallExpr, name ast.Expr) (typed, error) {
	parts := dotted(name)
	if parts == nil {
		return typed{}, c.errorf(x.P, "action_run(...) compares against an action name")
	}
	t, err := c.call(run)
	if err != nil {
		return typed{}, err
	}
	inst := t.inst
	if len(parts) != 1 {
		return typed{}, c.errorf(at(name), "%q is not an action of table %s", strings.Join(parts, "."), inst.Table.Name)
	}
	idx, ok := inst.ActIndex[parts[0]]
	if !ok {
		known := make([]string, 0, len(inst.ActIndex))
		for name := range inst.ActIndex {
			known = append(known, name)
		}
		sort.Strings(known)
		return typed{}, c.errorf(at(name), "table %s has no action %q (actions: %s)", inst.Table.Name, parts[0], strings.Join(known, ", "))
	}
	return boolean(binops[x.Op](c.p.F, inst.ActVar.Term, c.p.F.BVConst64(int64(idx), inst.ActVar.Sort.Width))), nil
}
