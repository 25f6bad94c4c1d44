package ir

import (
	"math/big"
	"strings"

	"bf4/internal/p4/ast"
	"bf4/internal/p4/token"
	"bf4/internal/p4/types"
	"bf4/internal/smt"
)

// ref is the result of resolving a path expression.
type ref struct {
	term     *smt.Term // scalar value (reads)
	v        *Var      // scalar lvalue (assignable)
	header   *Header
	stack    *Stack
	prefix   string // struct prefix
	table    *ast.TableDecl
	register *Register
	packet   bool

	// fromHeader is set when the scalar belongs to a header instance
	// (validity checks attach to it).
	fromHeader string
	// stackLast marks dynamic stack access needing an underflow check.
	stackLast bool
	// konst is the const a name resolved to (term is its lowering).
	konst *types.ConstVal
}

// isPrefix reports whether path is a declared struct prefix.
func (b *builder) isPrefix(path string) bool {
	for name := range b.p.Vars {
		if strings.HasPrefix(name, path+".") || strings.HasPrefix(name, path+"[") {
			return true
		}
	}
	for name := range b.p.Headers {
		if strings.HasPrefix(name, path+".") || strings.HasPrefix(name, path+"[") || name == path {
			return true
		}
	}
	return false
}

func (b *builder) resolvePath(path string) ref {
	if h, ok := b.p.Headers[path]; ok {
		return ref{header: h}
	}
	if s, ok := b.p.Stacks[path]; ok {
		return ref{stack: s}
	}
	if v, ok := b.p.Vars[path]; ok {
		r := ref{term: v.Term, v: v}
		if i := strings.LastIndex(path, "."); i > 0 {
			if h, ok := b.p.Headers[path[:i]]; ok {
				r.fromHeader = h.Path
			}
		}
		return r
	}
	if b.isPrefix(path) {
		return ref{prefix: path}
	}
	return ref{}
}

func (b *builder) resolveRef(e ast.Expr) ref {
	switch x := e.(type) {
	case *ast.Ident:
		if b.actionArgs != nil {
			if t, ok := b.actionArgs[x.Name]; ok {
				return ref{term: t}
			}
		}
		if b.roles != nil {
			if role, ok := b.roles[x.Name]; ok {
				if role == "$packet" {
					return ref{packet: true}
				}
				return b.resolvePath(role)
			}
		}
		if b.ctl != nil {
			if sc := b.info.ScopeOf(b.ctl); sc != nil {
				if td, ok := sc.Tables[x.Name]; ok {
					return ref{table: td}
				}
			}
			if r := b.resolvePath(b.ctl.Name + "." + x.Name); r.term != nil {
				return r
			}
		}
		if reg, ok := b.p.Registers[x.Name]; ok {
			return ref{register: reg}
		}
		if c, ok := b.info.Consts[x.Name]; ok {
			return ref{term: b.lowerConst(c), konst: c}
		}
		return b.resolvePath(x.Name)
	case *ast.Member:
		rx := b.resolveRef(x.X)
		switch {
		case rx.prefix != "":
			return b.resolvePath(rx.prefix + "." + x.Name)
		case rx.header != nil:
			return b.resolvePath(rx.header.Path + "." + x.Name)
		case rx.stack != nil:
			switch x.Name {
			case "last":
				return ref{stack: rx.stack, stackLast: true}
			case "next":
				return ref{stack: rx.stack, stackLast: false, prefix: "$next"}
			case "lastIndex":
				t := b.f().Sub(rx.stack.Next.Term, b.f().BVConst64(1, 32))
				return ref{term: t, stackLast: true}
			case "nextIndex":
				return ref{term: rx.stack.Next.Term}
			}
		}
		return ref{}
	case *ast.IndexExpr:
		rx := b.resolveRef(x.X)
		if rx.stack == nil {
			return ref{}
		}
		if lit, ok := x.Index.(*ast.IntLit); ok {
			i := int(lit.Val.Int64())
			if i < 0 || i >= rx.stack.Size {
				b.errorf(x.P, "stack index %d out of bounds for %s[%d]", i, rx.stack.Path, rx.stack.Size)
				return ref{}
			}
			return b.resolvePath(rx.stack.Elems[i])
		}
		// Dynamic index: only supported in read position (ITE chain),
		// handled by lowerExpr.
		return ref{stack: rx.stack, stackLast: true}
	default:
		return ref{}
	}
}

// lowerConst lowers a const's initializer at its declared width, 32 bits
// when unsized, outside any control or action: its names are consts. Each
// const is lowered once, so a chain of consts that each name the last
// twice costs one lowering a const, not two to the chain's length.
func (b *builder) lowerConst(c *types.ConstVal) *smt.Term {
	if t, ok := b.consts[c]; ok {
		return t
	}
	w := c.Width
	if w == 0 {
		w = 32
	}
	ctl, roles, args := b.ctl, b.roles, b.actionArgs
	b.ctl, b.roles, b.actionArgs = nil, nil, nil
	t := b.toBV(b.lowerExpr(c.Value, w), w)
	b.ctl, b.roles, b.actionArgs = ctl, roles, args
	b.consts[c] = t
	return t
}

// intValue is e's exact value when e has P4's arbitrary-precision int
// type: unsized literals and unsized consts under unary - and ~ and the
// binary + - * << >> & | ^. P4 computes such an expression exactly and
// casts it to the width it meets (intTerm).
func (b *builder) intValue(e ast.Expr) (*big.Int, bool) {
	switch x := e.(type) {
	case *ast.IntLit:
		return x.Val, x.Width == 0
	case *ast.Ident:
		c := b.resolveRef(x).konst
		if c == nil || c.Width != 0 {
			return nil, false
		}
		v, seen := b.ints[c]
		if !seen {
			ctl, roles, args := b.ctl, b.roles, b.actionArgs
			b.ctl, b.roles, b.actionArgs = nil, nil, nil
			v, _ = b.intValue(c.Value)
			b.ctl, b.roles, b.actionArgs = ctl, roles, args
			b.ints[c] = v
		}
		return v, v != nil
	case *ast.UnaryExpr:
		v, ok := b.intValue(x.X)
		switch {
		case !ok:
		case x.Op == token.MINUS:
			return new(big.Int).Neg(v), true
		case x.Op == token.TILDE:
			return new(big.Int).Not(v), true
		}
	case *ast.BinaryExpr:
		l, ok := b.intValue(x.X)
		if !ok {
			return nil, false
		}
		r, ok := b.intValue(x.Y)
		if !ok {
			return nil, false
		}
		if op, ok := intOps[x.Op]; ok {
			return op(new(big.Int), l, r), true
		}
		if (x.Op == token.SHL || x.Op == token.SHR) && r.Sign() >= 0 && r.BitLen() <= 16 {
			if x.Op == token.SHL {
				return new(big.Int).Lsh(l, uint(r.Uint64())), true
			}
			return new(big.Int).Rsh(l, uint(r.Uint64())), true
		}
	}
	return nil, false
}

// intOps are the binary operators of int besides the shifts, whose
// amount intValue bounds (a longer shift is lowered as bits).
var intOps = map[token.Kind]func(z, x, y *big.Int) *big.Int{
	token.PLUS: (*big.Int).Add, token.MINUS: (*big.Int).Sub, token.STAR: (*big.Int).Mul,
	token.AMP: (*big.Int).And, token.PIPE: (*big.Int).Or, token.CARET: (*big.Int).Xor,
}

// intTerm casts an int value to width w, 32 bits when the context gives
// none.
func (b *builder) intTerm(v *big.Int, w int) *smt.Term {
	if w == 0 {
		w = 32
	}
	return b.f().BVConst(v, w)
}

// ------------------------------------------------------------- exprs

// lowerExpr lowers an expression to a term. want is the target width for
// unsized literals (0 if unknown).
func (b *builder) lowerExpr(e ast.Expr, want int) *smt.Term {
	f := b.f()
	switch x := e.(type) {
	case *ast.IntLit:
		w := x.Width
		if w == 0 {
			w = want
		}
		if w == 0 {
			w = 32
		}
		return f.BVConst(x.Val, w)
	case *ast.BoolLit:
		return f.Bool(x.Val)
	case *ast.Ident:
		if v, ok := b.intValue(x); ok {
			return b.intTerm(v, want)
		}
		return b.lowerPathRead(e)
	case *ast.Member, *ast.IndexExpr:
		return b.lowerPathRead(e)
	case *ast.CallExpr:
		return b.lowerCallExpr(x)
	case *ast.UnaryExpr:
		switch x.Op {
		case token.NOT:
			return f.Not(b.toBool(b.lowerExpr(x.X, 0)))
		case token.MINUS:
			return f.Neg(b.lowerBV(x.X, want))
		case token.TILDE:
			return f.BVNot(b.lowerBV(x.X, want))
		}
	case *ast.BinaryExpr:
		if v, ok := b.intValue(x); ok {
			return b.intTerm(v, want)
		}
		return b.lowerBinary(x, want)
	case *ast.CastExpr:
		t := b.info.ResolveType(x.Type)
		switch tt := t.(type) {
		case *types.BitsType:
			return b.toBV(b.lowerExpr(x.X, tt.Width), tt.Width)
		case *types.BoolT:
			return b.toBool(b.lowerExpr(x.X, 1))
		}
		b.errorf(x.P, "unsupported cast to %s", t)
		return f.BVConst64(0, 1)
	case *ast.TernaryExpr:
		cond := b.toBool(b.lowerExpr(x.Cond, 0))
		a := b.lowerExpr(x.Then, want)
		bb := b.lowerExpr(x.Else, want)
		if !a.Sort().IsBool() && !bb.Sort().IsBool() && a.Sort() != bb.Sort() {
			w := a.Sort().Width
			if bb.Sort().Width > w {
				w = bb.Sort().Width
			}
			a, bb = f.Resize(a, w), f.Resize(bb, w)
		}
		if a.Sort().IsBool() != bb.Sort().IsBool() {
			a, bb = b.toBool(a), b.toBool(bb)
		}
		return f.Ite(cond, a, bb)
	case *ast.DefaultExpr:
		return f.True()
	}
	b.errorf(e.Pos(), "unsupported expression %T", e)
	return f.BVConst64(0, 1)
}

// lowerBV lowers and coerces to a bitvector.
func (b *builder) lowerBV(e ast.Expr, want int) *smt.Term {
	t := b.lowerExpr(e, want)
	if t.Sort().IsBool() {
		w := want
		if w == 0 {
			w = 1
		}
		return b.toBV(t, w)
	}
	return t
}

// lowerPathRead lowers a variable/field read, recording header reads for
// validity instrumentation.
func (b *builder) lowerPathRead(e ast.Expr) *smt.Term {
	r := b.resolveRef(e)
	switch {
	case r.term != nil:
		if r.fromHeader != "" {
			b.markRead(r.fromHeader)
		}
		return r.term
	case r.stack != nil && r.stackLast:
		// stack.last.field or stack[dyn].field reads are handled one
		// level up (Member over this ref); a bare stack read is an error.
		b.errorf(e.Pos(), "header stack %s used as a value", r.stack.Path)
		return b.f().BVConst64(0, 1)
	case r.header != nil:
		b.errorf(e.Pos(), "header %s used as a value", r.header.Path)
		return b.f().BVConst64(0, 1)
	}
	// stack.last.field: Member whose base resolves to stackLast.
	if m, ok := e.(*ast.Member); ok {
		rx := b.resolveRef(m.X)
		if rx.stack != nil && rx.stackLast {
			return b.lowerStackLastField(rx.stack, m.Name, e.Pos())
		}
	}
	b.errorf(e.Pos(), "cannot lower expression %s", ast.PathString(e))
	return b.f().BVConst64(0, 1)
}

// lowerStackLastField builds the ITE chain for stack.last.field.
func (b *builder) lowerStackLastField(s *Stack, field string, pos token.Pos) *smt.Term {
	f := b.f()
	if b.stackReads != nil {
		b.stackReads[s.Path] = true
	}
	var out *smt.Term
	for i := s.Size - 1; i >= 0; i-- {
		fv := b.p.Vars[s.Elems[i]+"."+field]
		if fv == nil {
			b.errorf(pos, "stack %s element has no field %s", s.Path, field)
			return f.BVConst64(0, 1)
		}
		if out == nil {
			out = fv.Term
			continue
		}
		cond := f.Eq(s.Next.Term, f.BVConst64(int64(i+1), 32))
		out = f.Ite(cond, fv.Term, out)
	}
	return out
}

func (b *builder) lowerCallExpr(c *ast.CallExpr) *smt.Term {
	if m, ok := c.Fun.(*ast.Member); ok {
		r := b.resolveRef(m.X)
		if r.header != nil && m.Name == "isValid" {
			return r.header.Valid.Term
		}
		if r.stack != nil && r.stackLast && m.Name == "isValid" {
			// stack.last.isValid(): valid iff next > 0 and that element
			// is valid; approximate by next > 0 (extracted elements are
			// valid by construction).
			return b.f().Not(b.f().Eq(r.stack.Next.Term, b.f().BVConst64(0, 32)))
		}
	}
	b.errorf(c.P, "call %s is not a value expression", ast.PathString(c.Fun))
	return b.f().False()
}

func (b *builder) lowerBinary(x *ast.BinaryExpr, want int) *smt.Term {
	f := b.f()
	op := x.Op
	switch op {
	case token.AND:
		return f.And(b.toBool(b.lowerExpr(x.X, 0)), b.toBool(b.lowerExpr(x.Y, 0)))
	case token.OR:
		return f.Or(b.toBool(b.lowerExpr(x.X, 0)), b.toBool(b.lowerExpr(x.Y, 0)))
	}
	// Lower the structurally-typed side first to learn the width: the
	// left one, unless it is an int beside a typed operand it takes the
	// width of.
	var lhs, rhs *smt.Term
	if v, ok := b.intValue(x.X); ok && op != token.SHL && op != token.SHR && op != token.PLUSPLUS {
		if _, ok := b.intValue(x.Y); !ok {
			rhs = b.lowerExpr(x.Y, want)
			w := want
			if !rhs.Sort().IsBool() {
				w = rhs.Sort().Width
			}
			lhs = b.intTerm(v, w)
		}
	}
	if lhs == nil {
		lhs = b.lowerExpr(x.X, 0)
		w := 0
		if !lhs.Sort().IsBool() {
			w = lhs.Sort().Width
		}
		rhs = b.lowerExpr(x.Y, w)
	}
	// Harmonize sorts.
	if lhs.Sort().IsBool() != rhs.Sort().IsBool() {
		lhs, rhs = b.toBool(lhs), b.toBool(rhs)
	}
	if !lhs.Sort().IsBool() && lhs.Sort() != rhs.Sort() {
		if op == token.SHL || op == token.SHR || op == token.PLUSPLUS {
			// handled below
		} else {
			mw := lhs.Sort().Width
			if rhs.Sort().Width > mw {
				mw = rhs.Sort().Width
			}
			lhs, rhs = f.Resize(lhs, mw), f.Resize(rhs, mw)
		}
	}
	switch op {
	case token.EQ:
		return f.Eq(lhs, rhs)
	case token.NEQ:
		return f.Not(f.Eq(lhs, rhs))
	case token.LANGLE:
		return f.Ult(lhs, rhs)
	case token.RANGLE:
		return f.Ugt(lhs, rhs)
	case token.LEQ:
		return f.Ule(lhs, rhs)
	case token.GEQ:
		return f.Uge(lhs, rhs)
	case token.PLUS:
		return f.Add(lhs, rhs)
	case token.MINUS:
		return f.Sub(lhs, rhs)
	case token.STAR:
		return f.Mul(lhs, rhs)
	case token.AMP:
		return f.BVAnd(lhs, rhs)
	case token.PIPE:
		return f.BVOr(lhs, rhs)
	case token.CARET:
		return f.BVXor(lhs, rhs)
	case token.PLUSPLUS:
		return f.Concat(lhs, rhs)
	case token.SHL, token.SHR:
		wa := lhs.Sort().Width
		mw := wa
		if rhs.Sort().Width > mw {
			mw = rhs.Sort().Width
		}
		a, s := f.ZExt(lhs, mw), f.ZExt(rhs, mw)
		var res *smt.Term
		if op == token.SHL {
			res = f.Shl(a, s)
		} else {
			res = f.Lshr(a, s)
		}
		return f.Resize(res, wa)
	case token.SLASH, token.PERCENT:
		if lhs.IsConst() && rhs.IsConst() && rhs.Const().Sign() != 0 {
			q, r := new(big.Int).QuoRem(lhs.Const(), rhs.Const(), new(big.Int))
			if op == token.SLASH {
				return f.BVConst(q, lhs.Sort().Width)
			}
			return f.BVConst(r, lhs.Sort().Width)
		}
		b.errorf(x.P, "division is only supported on constants")
		return f.BVConst64(0, 1)
	}
	b.errorf(x.P, "unsupported binary operator %v", op)
	return f.BVConst64(0, 1)
}
