// Package types implements name resolution and type checking for bf4's
// P4-16 subset, in the role p4c's midend plays for the paper's
// implementation. It resolves typedefs, injects the V1Model builtins
// (standard_metadata_t, packet_in/out, mark_to_drop, NoAction, ...),
// assigns a semantic type to every expression, and identifies the V1Switch
// pipeline (parser, ingress, egress, deparser) that the verifier stitches
// together.
package types

import (
	"errors"
	"fmt"
	"strings"

	"bf4/internal/p4/ast"
)

// Type is the semantic type of an expression.
type Type interface {
	String() string
}

// BitsType is bit<Width>.
type BitsType struct {
	Width int
}

// BoolT is the boolean type.
type BoolT struct{}

// InfIntType is the type of unsized integer literals, coercible to any
// BitsType.
type InfIntType struct{}

// HeaderT is a header instance type.
type HeaderT struct {
	Decl *ast.HeaderDecl
}

// StructT is a struct instance type.
type StructT struct {
	Decl *ast.StructDecl
}

// StackT is a header stack type.
type StackT struct {
	Elem *HeaderT
	Size int
}

// TableT is the type of a table name.
type TableT struct {
	Decl *ast.TableDecl
}

// ActionT is the type of an action name.
type ActionT struct {
	Decl *ast.ActionDecl
}

// RegisterT is a register extern instance.
type RegisterT struct {
	Decl      *ast.RegisterDecl
	ElemWidth int
}

// ExternT is an opaque extern object (packet_in, packet_out).
type ExternT struct {
	Name string
}

// VoidT is the type of calls used as statements.
type VoidT struct{}

func (t *BitsType) String() string { return fmt.Sprintf("bit<%d>", t.Width) }
func (*BoolT) String() string      { return "bool" }
func (*InfIntType) String() string { return "int" }
func (t *HeaderT) String() string  { return "header " + t.Decl.Name }
func (t *StructT) String() string  { return "struct " + t.Decl.Name }
func (t *StackT) String() string   { return fmt.Sprintf("%s[%d]", t.Elem.Decl.Name, t.Size) }
func (t *TableT) String() string   { return "table " + t.Decl.Name }
func (t *ActionT) String() string  { return "action " + t.Decl.Name }
func (t *RegisterT) String() string {
	return fmt.Sprintf("register<bit<%d>>(%d)", t.ElemWidth, t.Decl.Size)
}
func (t *ExternT) String() string { return "extern " + t.Name }
func (*VoidT) String() string     { return "void" }

// WidthOf returns the bit width of t, treating bool as width 1; returns 0
// for non-scalar types.
func WidthOf(t Type) int {
	switch x := t.(type) {
	case *BitsType:
		return x.Width
	case *BoolT:
		return 1
	default:
		return 0
	}
}

// Pipeline identifies the V1Model blocks of a program.
type Pipeline struct {
	Parser   *ast.ParserDecl
	Ingress  *ast.ControlDecl
	Egress   *ast.ControlDecl
	Deparser *ast.ControlDecl
	// Checksum controls, present when the program instantiates all six
	// V1Switch arguments; ignored by the verifier.
	VerifyChecksum  *ast.ControlDecl
	ComputeChecksum *ast.ControlDecl
}

// Scope resolves names within one parser or control.
type Scope struct {
	Params    map[string]*ast.Param
	Actions   map[string]*ast.ActionDecl
	Tables    map[string]*ast.TableDecl
	Registers map[string]*ast.RegisterDecl
	Vars      map[string]*ast.VarDecl
}

// Info is the result of type checking.
type Info struct {
	Types    map[ast.Expr]Type
	Headers  map[string]*ast.HeaderDecl
	Structs  map[string]*ast.StructDecl
	Typedefs map[string]ast.Type
	Consts   map[string]*ConstVal
	Scopes   map[ast.Decl]*Scope // keyed by *ParserDecl / *ControlDecl
	Pipeline Pipeline

	errs []error
}

// ConstVal is a const declaration: its declared width (0 when unsized)
// and its initializer, which ir lowers at that width.
type ConstVal struct {
	Width int
	Value ast.Expr
}

// standardMetadata is the builtin v1model standard_metadata_t.
var standardMetadata = &ast.StructDecl{
	Name: "standard_metadata_t",
	Fields: []*ast.Field{
		{Name: "ingress_port", Type: &ast.BitType{Width: 9}},
		{Name: "egress_spec", Type: &ast.BitType{Width: 9}},
		{Name: "egress_port", Type: &ast.BitType{Width: 9}},
		{Name: "instance_type", Type: &ast.BitType{Width: 32}},
		{Name: "packet_length", Type: &ast.BitType{Width: 32}},
		{Name: "enq_timestamp", Type: &ast.BitType{Width: 32}},
		{Name: "enq_qdepth", Type: &ast.BitType{Width: 19}},
		{Name: "deq_timedelta", Type: &ast.BitType{Width: 32}},
		{Name: "deq_qdepth", Type: &ast.BitType{Width: 19}},
		{Name: "ingress_global_timestamp", Type: &ast.BitType{Width: 48}},
		{Name: "egress_global_timestamp", Type: &ast.BitType{Width: 48}},
		{Name: "mcast_grp", Type: &ast.BitType{Width: 16}},
		{Name: "egress_rid", Type: &ast.BitType{Width: 16}},
		{Name: "checksum_error", Type: &ast.BitType{Width: 1}},
		{Name: "priority", Type: &ast.BitType{Width: 3}},
	},
}

// NoAction is the builtin empty action.
var NoAction = &ast.ActionDecl{Name: "NoAction", Body: &ast.BlockStmt{}}

// Builtin extern functions callable as statements; all are modelled as
// no-ops or havoc by the IR builder.
var builtinFuncs = map[string]bool{
	"mark_to_drop": true, "random": true, "hash": true, "digest": true,
	"clone": true, "clone3": true, "resubmit": true, "recirculate": true,
	"truncate": true, "verify_checksum": true, "update_checksum": true,
	"verify_checksum_with_payload": true, "update_checksum_with_payload": true,
	"log_msg": true, "assert": true, "assume": true,
}

func (in *Info) errorf(n ast.Node, format string, args ...interface{}) {
	if len(in.errs) < 50 {
		pos := ""
		if n != nil && n.Pos().IsValid() {
			pos = n.Pos().String() + ": "
		}
		in.errs = append(in.errs, fmt.Errorf("%s%s", pos, fmt.Sprintf(format, args...)))
	}
}

// Check type-checks the program.
func Check(prog *ast.Program) (*Info, error) {
	in := &Info{
		Types:    make(map[ast.Expr]Type),
		Headers:  make(map[string]*ast.HeaderDecl),
		Structs:  make(map[string]*ast.StructDecl),
		Typedefs: make(map[string]ast.Type),
		Consts:   make(map[string]*ConstVal),
		Scopes:   make(map[ast.Decl]*Scope),
	}
	in.Structs[standardMetadata.Name] = standardMetadata

	// Pass 1: collect type and const declarations.
	for _, d := range prog.Decls {
		switch x := d.(type) {
		case *ast.HeaderDecl:
			if _, dup := in.Headers[x.Name]; dup {
				in.errorf(x, "duplicate header %s", x.Name)
			}
			in.Headers[x.Name] = x
		case *ast.StructDecl:
			if _, dup := in.Structs[x.Name]; dup && x != standardMetadata {
				in.errorf(x, "duplicate struct %s", x.Name)
			}
			in.Structs[x.Name] = x
		case *ast.TypedefDecl:
			in.Typedefs[x.Name] = x.Type
		case *ast.ConstDecl:
			w := 0
			if bt, ok := in.resolveAST(x.Type).(*ast.BitType); ok {
				w = bt.Width
			}
			if _, dup := in.Consts[x.Name]; dup {
				in.errorf(x, "duplicate const %s", x.Name)
			}
			if !in.constant(x.Value) {
				in.errorf(x, "const %s: initializer is not a constant expression", x.Name)
			}
			in.Consts[x.Name] = &ConstVal{Width: w, Value: x.Value}
		}
	}

	// Pass 1.5: validate that all field types resolve.
	for _, d := range prog.Decls {
		switch x := d.(type) {
		case *ast.HeaderDecl:
			for _, f := range x.Fields {
				in.ResolveType(f.Type)
			}
		case *ast.StructDecl:
			for _, f := range x.Fields {
				in.ResolveType(f.Type)
			}
		}
	}

	// Pass 2: build scopes and check bodies.
	for _, d := range prog.Decls {
		switch x := d.(type) {
		case *ast.ParserDecl:
			in.checkParser(x)
		case *ast.ControlDecl:
			in.checkControl(x)
		}
	}

	in.resolvePipeline(prog)

	if len(in.errs) > 0 {
		msgs := make([]string, len(in.errs))
		for i, e := range in.errs {
			msgs[i] = e.Error()
		}
		return in, errors.New(strings.Join(msgs, "\n"))
	}
	return in, nil
}

// resolveAST resolves typedef chains at the syntax level.
func (in *Info) resolveAST(t ast.Type) ast.Type {
	for i := 0; i < 32; i++ {
		nt, ok := t.(*ast.NamedType)
		if !ok {
			return t
		}
		under, ok := in.Typedefs[nt.Name]
		if !ok {
			return t
		}
		t = under
	}
	return t
}

// ResolveType converts a syntactic type to a semantic one.
func (in *Info) ResolveType(t ast.Type) Type {
	switch x := in.resolveAST(t).(type) {
	case *ast.BitType:
		return &BitsType{Width: x.Width}
	case *ast.BoolType:
		return &BoolT{}
	case *ast.StackType:
		elem := in.ResolveType(x.Elem)
		h, ok := elem.(*HeaderT)
		if !ok {
			in.errorf(x, "header stack element must be a header type")
			return &VoidT{}
		}
		return &StackT{Elem: h, Size: x.Size}
	case *ast.NamedType:
		if h, ok := in.Headers[x.Name]; ok {
			return &HeaderT{Decl: h}
		}
		if s, ok := in.Structs[x.Name]; ok {
			return &StructT{Decl: s}
		}
		switch x.Name {
		case "packet_in", "packet_out":
			return &ExternT{Name: x.Name}
		}
		in.errorf(x, "unknown type %s", x.Name)
		return &VoidT{}
	default:
		in.errorf(t, "unsupported type")
		return &VoidT{}
	}
}

// constant reports whether e is a constant expression: literals and
// earlier consts under unary - and ~, the arithmetic, shift and bitwise
// binary operators, and casts.
func (in *Info) constant(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.IntLit, *ast.BoolLit:
		return true
	case *ast.Ident:
		_, ok := in.Consts[x.Name]
		return ok
	case *ast.UnaryExpr:
		op := x.Op.String()
		return (op == "-" || op == "~") && in.constant(x.X)
	case *ast.BinaryExpr:
		switch x.Op.String() {
		case "+", "-", "*", "<<", ">>", "&", "|", "^":
			return in.constant(x.X) && in.constant(x.Y)
		}
	case *ast.CastExpr:
		return in.constant(x.X)
	}
	return false
}

func (in *Info) newScope(owner ast.Decl, params []*ast.Param, locals []ast.Decl) *Scope {
	sc := &Scope{
		Params:    make(map[string]*ast.Param),
		Actions:   map[string]*ast.ActionDecl{"NoAction": NoAction},
		Tables:    make(map[string]*ast.TableDecl),
		Registers: make(map[string]*ast.RegisterDecl),
		Vars:      make(map[string]*ast.VarDecl),
	}
	for _, p := range params {
		sc.Params[p.Name] = p
	}
	for _, l := range locals {
		switch x := l.(type) {
		case *ast.ActionDecl:
			sc.Actions[x.Name] = x
		case *ast.TableDecl:
			sc.Tables[x.Name] = x
		case *ast.RegisterDecl:
			sc.Registers[x.Name] = x
		case *ast.VarDecl:
			sc.Vars[x.Name] = x
		}
	}
	in.Scopes[owner] = sc
	return sc
}

func (in *Info) checkParser(p *ast.ParserDecl) {
	sc := in.newScope(p, p.Params, p.Locals)
	seen := map[string]bool{"accept": true, "reject": true}
	for _, st := range p.States {
		if seen[st.Name] {
			in.errorf(st, "duplicate state %s", st.Name)
		}
		seen[st.Name] = true
	}
	for _, st := range p.States {
		for _, s := range st.Stmts {
			in.checkStmt(sc, s, nil)
		}
		if st.Trans == nil {
			continue
		}
		if st.Trans.Select != nil {
			for _, e := range st.Trans.Select.Exprs {
				in.checkExpr(sc, e, nil)
			}
			for _, c := range st.Trans.Select.Cases {
				if !seen[c.Next] {
					in.errorf(c, "transition to unknown state %s", c.Next)
				}
				for _, v := range c.Values {
					in.checkExpr(sc, v, nil)
				}
			}
		} else if !seen[st.Trans.Next] {
			in.errorf(st.Trans, "transition to unknown state %s", st.Trans.Next)
		}
	}
}

func (in *Info) checkControl(c *ast.ControlDecl) {
	sc := in.newScope(c, c.Params, c.Locals)
	for _, l := range c.Locals {
		switch x := l.(type) {
		case *ast.ActionDecl:
			in.checkAction(sc, x)
		case *ast.TableDecl:
			in.checkTable(sc, x)
		case *ast.VarDecl:
			if x.Init != nil {
				in.checkExpr(sc, x.Init, nil)
			}
		}
	}
	for _, s := range c.Apply.Stmts {
		in.checkStmt(sc, s, nil)
	}
}

func (in *Info) checkAction(sc *Scope, a *ast.ActionDecl) {
	locals := map[string]*ast.Param{}
	for _, p := range a.Params {
		locals[p.Name] = p
	}
	for _, s := range a.Body.Stmts {
		in.checkStmt(sc, s, locals)
	}
}

func (in *Info) checkTable(sc *Scope, t *ast.TableDecl) {
	for _, k := range t.Keys {
		kt := in.checkExpr(sc, k.Expr, nil)
		switch k.MatchKind {
		case "exact", "ternary", "lpm":
		default:
			in.errorf(k, "table %s: unsupported match kind %q", t.Name, k.MatchKind)
		}
		if WidthOf(kt) == 0 {
			in.errorf(k, "table %s: key %s has non-scalar type %s", t.Name, ast.PathString(k.Expr), kt)
		}
	}
	for _, a := range t.Actions {
		if _, ok := sc.Actions[a.Name]; !ok {
			in.errorf(a, "table %s: unknown action %s", t.Name, a.Name)
		}
	}
	if t.Default != nil {
		if _, ok := sc.Actions[t.Default.Name]; !ok {
			in.errorf(t.Default, "table %s: unknown default action %s", t.Name, t.Default.Name)
		}
		for _, arg := range t.Default.Args {
			in.checkExpr(sc, arg, nil)
		}
	}
}

func (in *Info) checkStmt(sc *Scope, s ast.Stmt, actionParams map[string]*ast.Param) {
	switch x := s.(type) {
	case *ast.AssignStmt:
		lt := in.checkExpr(sc, x.LHS, actionParams)
		rt := in.checkExpr(sc, x.RHS, actionParams)
		if !assignable(lt, rt) {
			in.errorf(x, "cannot assign %s to %s", rt, lt)
		}
	case *ast.CallStmt:
		in.checkExpr(sc, x.Call, actionParams)
	case *ast.IfStmt:
		ct := in.checkExpr(sc, x.Cond, actionParams)
		if _, ok := ct.(*BoolT); !ok {
			in.errorf(x.Cond, "if condition must be bool, got %s", ct)
		}
		in.checkStmt(sc, x.Then, actionParams)
		if x.Else != nil {
			in.checkStmt(sc, x.Else, actionParams)
		}
	case *ast.BlockStmt:
		for _, st := range x.Stmts {
			in.checkStmt(sc, st, actionParams)
		}
	case *ast.SwitchStmt:
		tt := in.checkExpr(sc, x.Table, actionParams)
		tbl, ok := tt.(*TableT)
		if !ok {
			in.errorf(x, "switch must apply a table, got %s", tt)
			return
		}
		valid := map[string]bool{}
		for _, a := range tbl.Decl.Actions {
			valid[a.Name] = true
		}
		for _, c := range x.Cases {
			if c.Label != "" && !valid[c.Label] {
				in.errorf(c, "switch case %s is not an action of table %s", c.Label, tbl.Decl.Name)
			}
			if c.Body != nil {
				in.checkStmt(sc, c.Body, actionParams)
			}
		}
	case *ast.VarDeclStmt:
		sc.Vars[x.Decl.Name] = x.Decl
		if x.Decl.Init != nil {
			lt := in.ResolveType(x.Decl.Type)
			rt := in.checkExpr(sc, x.Decl.Init, actionParams)
			if !assignable(lt, rt) {
				in.errorf(x.Decl, "cannot initialize %s with %s", lt, rt)
			}
		}
	case *ast.ExitStmt, *ast.ReturnStmt, *ast.EmptyStmt:
	default:
		in.errorf(s, "unsupported statement %T", s)
	}
}

// assignable reports whether a value of type rt can be assigned to lt.
func assignable(lt, rt Type) bool {
	switch l := lt.(type) {
	case *BitsType:
		switch r := rt.(type) {
		case *BitsType:
			return l.Width == r.Width
		case *InfIntType:
			return true
		case *BoolT:
			return l.Width == 1 // tolerated: bit<1> <-> bool coercion
		}
		return false
	case *BoolT:
		switch rt.(type) {
		case *BoolT, *InfIntType:
			return true
		case *BitsType:
			return rt.(*BitsType).Width == 1
		}
		return false
	case *HeaderT:
		r, ok := rt.(*HeaderT)
		return ok && r.Decl == l.Decl
	default:
		return false
	}
}

func (in *Info) checkExpr(sc *Scope, e ast.Expr, actionParams map[string]*ast.Param) Type {
	t := in.typeOf(sc, e, actionParams)
	in.Types[e] = t
	return t
}

func (in *Info) typeOf(sc *Scope, e ast.Expr, actionParams map[string]*ast.Param) Type {
	switch x := e.(type) {
	case *ast.IntLit:
		if x.Width > 0 {
			return &BitsType{Width: x.Width}
		}
		return &InfIntType{}
	case *ast.BoolLit:
		return &BoolT{}
	case *ast.DefaultExpr:
		return &InfIntType{}
	case *ast.Ident:
		if actionParams != nil {
			if p, ok := actionParams[x.Name]; ok {
				return in.ResolveType(p.Type)
			}
		}
		if p, ok := sc.Params[x.Name]; ok {
			return in.ResolveType(p.Type)
		}
		if v, ok := sc.Vars[x.Name]; ok {
			return in.ResolveType(v.Type)
		}
		if a, ok := sc.Actions[x.Name]; ok {
			return &ActionT{Decl: a}
		}
		if t, ok := sc.Tables[x.Name]; ok {
			return &TableT{Decl: t}
		}
		if r, ok := sc.Registers[x.Name]; ok {
			return &RegisterT{Decl: r, ElemWidth: WidthOf(in.ResolveType(r.ElemType))}
		}
		if c, ok := in.Consts[x.Name]; ok {
			if c.Width > 0 {
				return &BitsType{Width: c.Width}
			}
			return &InfIntType{}
		}
		in.errorf(x, "undefined: %s", x.Name)
		return &VoidT{}
	case *ast.Member:
		return in.memberType(sc, x, actionParams)
	case *ast.IndexExpr:
		xt := in.checkExpr(sc, x.X, actionParams)
		in.checkExpr(sc, x.Index, actionParams)
		if st, ok := xt.(*StackT); ok {
			return st.Elem
		}
		in.errorf(x, "cannot index %s", xt)
		return &VoidT{}
	case *ast.CallExpr:
		return in.callType(sc, x, actionParams)
	case *ast.UnaryExpr:
		xt := in.checkExpr(sc, x.X, actionParams)
		switch x.Op.String() {
		case "!":
			if _, ok := xt.(*BoolT); !ok {
				in.errorf(x, "operator ! requires bool, got %s", xt)
			}
			return &BoolT{}
		default: // - ~
			if _, ok := xt.(*BitsType); ok {
				return xt
			}
			if _, ok := xt.(*InfIntType); ok {
				return xt
			}
			in.errorf(x, "operator %s requires bits, got %s", x.Op, xt)
			return &VoidT{}
		}
	case *ast.BinaryExpr:
		return in.binaryType(sc, x, actionParams)
	case *ast.CastExpr:
		in.checkExpr(sc, x.X, actionParams)
		return in.ResolveType(x.Type)
	case *ast.TernaryExpr:
		ct := in.checkExpr(sc, x.Cond, actionParams)
		if _, ok := ct.(*BoolT); !ok {
			in.errorf(x.Cond, "ternary condition must be bool, got %s", ct)
		}
		tt := in.checkExpr(sc, x.Then, actionParams)
		et := in.checkExpr(sc, x.Else, actionParams)
		if _, ok := tt.(*InfIntType); ok {
			return et
		}
		if !assignable(tt, et) && !assignable(et, tt) {
			in.errorf(x, "ternary branches disagree: %s vs %s", tt, et)
		}
		return tt
	default:
		in.errorf(e, "unsupported expression %T", e)
		return &VoidT{}
	}
}

func (in *Info) memberType(sc *Scope, m *ast.Member, actionParams map[string]*ast.Param) Type {
	xt := in.checkExpr(sc, m.X, actionParams)
	switch base := xt.(type) {
	case *StructT:
		for _, f := range base.Decl.Fields {
			if f.Name == m.Name {
				return in.ResolveType(f.Type)
			}
		}
		in.errorf(m, "struct %s has no field %s", base.Decl.Name, m.Name)
		return &VoidT{}
	case *HeaderT:
		for _, f := range base.Decl.Fields {
			if f.Name == m.Name {
				return in.ResolveType(f.Type)
			}
		}
		// Methods resolved at call sites; here a bare member of a header
		// that is not a field is an error unless it's a method name.
		switch m.Name {
		case "isValid", "setValid", "setInvalid":
			return &VoidT{} // call-position only
		}
		in.errorf(m, "header %s has no field %s", base.Decl.Name, m.Name)
		return &VoidT{}
	case *StackT:
		switch m.Name {
		case "next", "last":
			return base.Elem
		case "lastIndex", "nextIndex":
			return &BitsType{Width: 32}
		case "push_front", "pop_front":
			return &VoidT{}
		}
		in.errorf(m, "header stack has no member %s", m.Name)
		return &VoidT{}
	case *TableT:
		if m.Name == "apply" {
			return &VoidT{}
		}
		in.errorf(m, "table has no member %s", m.Name)
		return &VoidT{}
	case *RegisterT:
		if m.Name == "read" || m.Name == "write" {
			return &VoidT{}
		}
		in.errorf(m, "register has no member %s", m.Name)
		return &VoidT{}
	case *ExternT:
		switch m.Name {
		case "extract", "emit", "advance", "lookahead", "length":
			return &VoidT{}
		}
		in.errorf(m, "extern %s has no member %s", base.Name, m.Name)
		return &VoidT{}
	default:
		in.errorf(m, "cannot select %s from %s", m.Name, xt)
		return &VoidT{}
	}
}

func (in *Info) callType(sc *Scope, c *ast.CallExpr, actionParams map[string]*ast.Param) Type {
	for _, a := range c.Args {
		in.checkExpr(sc, a, actionParams)
	}
	switch fun := c.Fun.(type) {
	case *ast.Ident:
		if a, ok := sc.Actions[fun.Name]; ok {
			in.Types[c.Fun] = &ActionT{Decl: a}
			if len(c.Args) != len(a.Params) {
				in.errorf(c, "action %s called with %d args, want %d", a.Name, len(c.Args), len(a.Params))
			}
			return &VoidT{}
		}
		if builtinFuncs[fun.Name] {
			in.Types[c.Fun] = &VoidT{}
			return &VoidT{}
		}
		in.errorf(c, "undefined function %s", fun.Name)
		return &VoidT{}
	case *ast.Member:
		recvT := in.checkExpr(sc, fun.X, actionParams)
		in.Types[fun] = &VoidT{}
		switch base := recvT.(type) {
		case *HeaderT:
			switch fun.Name {
			case "isValid":
				return &BoolT{}
			case "setValid", "setInvalid":
				return &VoidT{}
			}
			in.errorf(c, "header %s has no method %s", base.Decl.Name, fun.Name)
		case *StackT:
			switch fun.Name {
			case "push_front", "pop_front":
				return &VoidT{}
			}
			in.errorf(c, "header stack has no method %s", fun.Name)
		case *TableT:
			if fun.Name == "apply" {
				return &VoidT{}
			}
			in.errorf(c, "table %s has no method %s", base.Decl.Name, fun.Name)
		case *RegisterT:
			switch fun.Name {
			case "read", "write":
				if len(c.Args) != 2 {
					in.errorf(c, "register.%s takes 2 arguments", fun.Name)
				}
				return &VoidT{}
			}
			in.errorf(c, "register has no method %s", fun.Name)
		case *ExternT:
			switch fun.Name {
			case "extract", "emit", "advance":
				return &VoidT{}
			case "lookahead":
				return &InfIntType{}
			}
			in.errorf(c, "extern %s has no method %s", base.Name, fun.Name)
		default:
			in.errorf(c, "cannot call method %s on %s", fun.Name, recvT)
		}
		return &VoidT{}
	default:
		in.errorf(c, "unsupported call target")
		return &VoidT{}
	}
}

func (in *Info) binaryType(sc *Scope, b *ast.BinaryExpr, actionParams map[string]*ast.Param) Type {
	xt := in.checkExpr(sc, b.X, actionParams)
	yt := in.checkExpr(sc, b.Y, actionParams)
	op := b.Op.String()
	switch op {
	case "&&", "||":
		if _, ok := xt.(*BoolT); !ok {
			in.errorf(b.X, "operator %s requires bool, got %s", op, xt)
		}
		if _, ok := yt.(*BoolT); !ok {
			in.errorf(b.Y, "operator %s requires bool, got %s", op, yt)
		}
		return &BoolT{}
	case "==", "!=":
		if !comparable2(xt, yt) {
			in.errorf(b, "cannot compare %s with %s", xt, yt)
		}
		return &BoolT{}
	case "<", ">", "<=", ">=":
		if !comparable2(xt, yt) {
			in.errorf(b, "cannot compare %s with %s", xt, yt)
		}
		return &BoolT{}
	case "++":
		xw, yw := WidthOf(xt), WidthOf(yt)
		if xw == 0 || yw == 0 {
			in.errorf(b, "concatenation requires sized operands")
			return &VoidT{}
		}
		return &BitsType{Width: xw + yw}
	default: // arithmetic / bitwise / shifts
		if _, ok := xt.(*BitsType); ok {
			if !comparable2(xt, yt) && op != "<<" && op != ">>" {
				in.errorf(b, "operator %s: mismatched widths %s vs %s", op, xt, yt)
			}
			return xt
		}
		if _, ok := xt.(*InfIntType); ok {
			if _, ok := yt.(*BitsType); ok {
				return yt
			}
			return &InfIntType{}
		}
		in.errorf(b, "operator %s requires bits, got %s", op, xt)
		return &VoidT{}
	}
}

// comparable2 reports whether two scalar types can be compared.
func comparable2(a, b Type) bool {
	switch x := a.(type) {
	case *BitsType:
		switch y := b.(type) {
		case *BitsType:
			return x.Width == y.Width
		case *InfIntType:
			return true
		case *BoolT:
			return x.Width == 1
		}
	case *InfIntType:
		switch b.(type) {
		case *BitsType, *InfIntType:
			return true
		}
	case *BoolT:
		switch y := b.(type) {
		case *BoolT, *InfIntType:
			return true
		case *BitsType:
			return y.Width == 1
		}
	}
	return false
}

// resolvePipeline extracts the V1Switch blocks, or falls back to
// kind/name-based discovery when no instantiation is present.
func (in *Info) resolvePipeline(prog *ast.Program) {
	parsers := map[string]*ast.ParserDecl{}
	controls := map[string]*ast.ControlDecl{}
	var firstParser *ast.ParserDecl
	var controlOrder []*ast.ControlDecl
	for _, d := range prog.Decls {
		switch x := d.(type) {
		case *ast.ParserDecl:
			parsers[x.Name] = x
			if firstParser == nil {
				firstParser = x
			}
		case *ast.ControlDecl:
			controls[x.Name] = x
			controlOrder = append(controlOrder, x)
		}
	}

	var inst *ast.InstantiationDecl
	for _, d := range prog.Decls {
		if x, ok := d.(*ast.InstantiationDecl); ok && x.Name == "main" {
			inst = x
		}
	}
	pl := &in.Pipeline
	if inst != nil {
		names := make([]string, 0, len(inst.Args))
		for _, a := range inst.Args {
			if call, ok := a.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok {
					names = append(names, id.Name)
					continue
				}
			}
			names = append(names, "")
		}
		pick := func(i int) *ast.ControlDecl {
			if i < len(names) {
				return controls[names[i]]
			}
			return nil
		}
		if len(names) > 0 {
			pl.Parser = parsers[names[0]]
		}
		switch len(names) {
		case 6: // V1Switch(p, vc, ig, eg, cc, dep)
			pl.VerifyChecksum, pl.Ingress, pl.Egress = pick(1), pick(2), pick(3)
			pl.ComputeChecksum, pl.Deparser = pick(4), pick(5)
		case 4: // abbreviated V1Switch(p, ig, eg, dep)
			pl.Ingress, pl.Egress, pl.Deparser = pick(1), pick(2), pick(3)
		case 3:
			pl.Ingress, pl.Egress = pick(1), pick(2)
		case 2:
			pl.Ingress = pick(1)
		}
		if pl.Parser == nil {
			in.errorf(inst, "V1Switch: cannot resolve parser %q", names)
		}
		if pl.Ingress == nil {
			in.errorf(inst, "V1Switch: cannot resolve ingress control")
		}
		return
	}

	// Fallback: first parser; controls by name heuristics then by order.
	pl.Parser = firstParser
	for _, c := range controlOrder {
		lname := strings.ToLower(c.Name)
		switch {
		case strings.Contains(lname, "ingress") && pl.Ingress == nil:
			pl.Ingress = c
		case strings.Contains(lname, "egress") && pl.Egress == nil:
			pl.Egress = c
		case strings.Contains(lname, "deparser") && pl.Deparser == nil:
			pl.Deparser = c
		}
	}
	if pl.Ingress == nil && len(controlOrder) > 0 {
		pl.Ingress = controlOrder[0]
	}
}

// PipelineStructs identifies the structs the verifier calls hdr and meta:
// the type of the parser's out parameter, and of its first other struct
// parameter that is not standard_metadata_t.
func (in *Info) PipelineStructs() (headers, meta *ast.StructDecl) {
	if in.Pipeline.Parser == nil {
		return nil, nil
	}
	for _, p := range in.Pipeline.Parser.Params {
		st, ok := in.ResolveType(p.Type).(*StructT)
		switch {
		case !ok || st.Decl.Name == "standard_metadata_t":
		case p.Dir == "out":
			headers = st.Decl
		case meta == nil:
			meta = st.Decl
		}
	}
	return headers, meta
}

// ScopeOf returns the scope of a parser or control declaration.
func (in *Info) ScopeOf(d ast.Decl) *Scope { return in.Scopes[d] }

// TypeOf returns the checked type of an expression (nil if unchecked).
func (in *Info) TypeOf(e ast.Expr) Type { return in.Types[e] }
