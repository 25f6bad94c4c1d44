package ast

import (
	"fmt"
	"strings"

	"bf4/internal/p4/token"
)

// Print renders the program back to P4 source. The output is not
// byte-identical to the input (comments and layout are normalized) but
// parses to an equivalent AST; bf4 uses it to emit fixed programs with the
// keys added by the Fixes algorithm.
func Print(p *Program) string {
	pr := &printer{}
	for i, d := range p.Decls {
		if i > 0 {
			pr.nl()
		}
		pr.decl(d)
	}
	return pr.b.String()
}

// PrintExpr renders a single expression.
func PrintExpr(e Expr) string {
	pr := &printer{}
	pr.expr(e, 0)
	return pr.b.String()
}

type printer struct {
	b      strings.Builder
	indent int
}

func (p *printer) w(s string)                        { p.b.WriteString(s) }
func (p *printer) f(format string, a ...interface{}) { fmt.Fprintf(&p.b, format, a...) }

func (p *printer) nl() {
	p.w("\n")
}

func (p *printer) line(s string) {
	p.w(strings.Repeat("    ", p.indent))
	p.w(s)
	p.nl()
}

func (p *printer) open(s string) {
	p.line(s + " {")
	p.indent++
}

func (p *printer) close(suffix string) {
	p.indent--
	p.line("}" + suffix)
}

func (p *printer) typ(t Type) {
	switch x := t.(type) {
	case *BitType:
		p.f("bit<%d>", x.Width)
	case *BoolType:
		p.w("bool")
	case *NamedType:
		p.w(x.Name)
	case *StackType:
		p.typ(x.Elem)
		p.f("[%d]", x.Size)
	default:
		p.w("/*?type?*/")
	}
}

func (p *printer) params(params []*Param) {
	p.w("(")
	for i, pa := range params {
		if i > 0 {
			p.w(", ")
		}
		if pa.Dir != "" {
			p.w(pa.Dir + " ")
		}
		p.typ(pa.Type)
		p.w(" " + pa.Name)
	}
	p.w(")")
}

func (p *printer) decl(d Decl) {
	ind := strings.Repeat("    ", p.indent)
	switch x := d.(type) {
	case *HeaderDecl:
		p.open("header " + x.Name)
		for _, f := range x.Fields {
			p.w(strings.Repeat("    ", p.indent))
			p.typ(f.Type)
			p.w(" " + f.Name + ";")
			p.nl()
		}
		p.close("")
	case *StructDecl:
		p.open("struct " + x.Name)
		for _, f := range x.Fields {
			p.w(strings.Repeat("    ", p.indent))
			p.typ(f.Type)
			p.w(" " + f.Name + ";")
			p.nl()
		}
		p.close("")
	case *TypedefDecl:
		p.w(ind + "typedef ")
		p.typ(x.Type)
		p.w(" " + x.Name + ";")
		p.nl()
	case *ConstDecl:
		p.w(ind + "const ")
		p.typ(x.Type)
		p.w(" " + x.Name + " = ")
		p.expr(x.Value, 0)
		p.w(";")
		p.nl()
	case *ParserDecl:
		p.w(ind + "parser " + x.Name)
		p.params(x.Params)
		p.w(" {")
		p.nl()
		p.indent++
		for _, l := range x.Locals {
			p.decl(l)
		}
		for _, st := range x.States {
			p.open("state " + st.Name)
			for _, s := range st.Stmts {
				p.stmt(s)
			}
			if st.Trans != nil {
				p.transition(st.Trans)
			}
			p.close("")
		}
		p.close("")
	case *ControlDecl:
		p.w(ind + "control " + x.Name)
		p.params(x.Params)
		p.w(" {")
		p.nl()
		p.indent++
		for _, l := range x.Locals {
			p.decl(l)
		}
		p.open("apply")
		for _, s := range x.Apply.Stmts {
			p.stmt(s)
		}
		p.close("")
		p.close("")
	case *ActionDecl:
		p.w(ind + "action " + x.Name)
		p.params(x.Params)
		p.w(" {")
		p.nl()
		p.indent++
		for _, s := range x.Body.Stmts {
			p.stmt(s)
		}
		p.close("")
	case *TableDecl:
		p.open("table " + x.Name)
		if len(x.Keys) > 0 {
			p.open("key =")
			for _, k := range x.Keys {
				p.w(strings.Repeat("    ", p.indent))
				p.expr(k.Expr, 0)
				p.w(": " + k.MatchKind + ";")
				p.nl()
			}
			p.close("")
		}
		p.open("actions =")
		for _, a := range x.Actions {
			p.line(a.Name + ";")
		}
		p.close("")
		if x.Default != nil {
			p.w(strings.Repeat("    ", p.indent))
			p.w("default_action = " + x.Default.Name + "(")
			for i, a := range x.Default.Args {
				if i > 0 {
					p.w(", ")
				}
				p.expr(a, 0)
			}
			p.w(");")
			p.nl()
		}
		if x.Size > 0 {
			p.line(fmt.Sprintf("size = %d;", x.Size))
		}
		p.close("")
	case *RegisterDecl:
		p.w(ind + "register<")
		p.typ(x.ElemType)
		p.f(">(%d) %s;", x.Size, x.Name)
		p.nl()
	case *VarDecl:
		p.w(ind)
		p.typ(x.Type)
		p.w(" " + x.Name)
		if x.Init != nil {
			p.w(" = ")
			p.expr(x.Init, 0)
		}
		p.w(";")
		p.nl()
	case *InstantiationDecl:
		p.w(ind + x.TypeName + "(")
		for i, a := range x.Args {
			if i > 0 {
				p.w(", ")
			}
			p.expr(a, 0)
		}
		p.w(") " + x.Name + ";")
		p.nl()
	default:
		p.line(fmt.Sprintf("/* unprintable decl %T */", d))
	}
}

func (p *printer) transition(t *Transition) {
	ind := strings.Repeat("    ", p.indent)
	if t.Select == nil {
		p.line("transition " + t.Next + ";")
		return
	}
	p.w(ind + "transition select(")
	for i, e := range t.Select.Exprs {
		if i > 0 {
			p.w(", ")
		}
		p.expr(e, 0)
	}
	p.w(") {")
	p.nl()
	p.indent++
	for _, c := range t.Select.Cases {
		p.w(strings.Repeat("    ", p.indent))
		if len(c.Values) > 1 {
			p.w("(")
		}
		for i, v := range c.Values {
			if i > 0 {
				p.w(", ")
			}
			p.expr(v, 0)
		}
		if len(c.Values) > 1 {
			p.w(")")
		}
		p.w(": " + c.Next + ";")
		p.nl()
	}
	p.close("")
}

func (p *printer) stmt(s Stmt) {
	ind := strings.Repeat("    ", p.indent)
	switch x := s.(type) {
	case *AssignStmt:
		p.w(ind)
		p.expr(x.LHS, 0)
		p.w(" = ")
		p.expr(x.RHS, 0)
		p.w(";")
		p.nl()
	case *CallStmt:
		p.w(ind)
		p.expr(x.Call, 0)
		p.w(";")
		p.nl()
	case *IfStmt:
		p.w(ind + "if (")
		p.expr(x.Cond, 0)
		p.w(") {")
		p.nl()
		p.indent++
		for _, st := range x.Then.Stmts {
			p.stmt(st)
		}
		p.indent--
		switch e := x.Else.(type) {
		case nil:
			p.line("}")
		case *BlockStmt:
			p.line("} else {")
			p.indent++
			for _, st := range e.Stmts {
				p.stmt(st)
			}
			p.close("")
		case *IfStmt:
			p.w(ind + "} else ")
			// Render nested else-if without its leading indent.
			sub := &printer{indent: p.indent}
			sub.stmt(e)
			p.w(strings.TrimPrefix(sub.b.String(), ind))
		}
	case *BlockStmt:
		p.open("")
		for _, st := range x.Stmts {
			p.stmt(st)
		}
		p.close("")
	case *SwitchStmt:
		p.w(ind + "switch (")
		p.expr(x.Table, 0)
		p.w(".apply().action_run) {")
		p.nl()
		p.indent++
		for _, c := range x.Cases {
			label := c.Label
			if label == "" {
				label = "default"
			}
			if c.Body == nil {
				p.line(label + ":")
				continue
			}
			p.open(label + ":")
			for _, st := range c.Body.Stmts {
				p.stmt(st)
			}
			p.close("")
		}
		p.close("")
	case *ExitStmt:
		p.line("exit;")
	case *ReturnStmt:
		p.line("return;")
	case *VarDeclStmt:
		p.decl(x.Decl)
	case *EmptyStmt:
		p.line(";")
	default:
		p.line(fmt.Sprintf("/* unprintable stmt %T */", s))
	}
}

// precedence for parenthesization decisions.
func prec(op token.Kind) int {
	switch op {
	case token.ARROW:
		return 0
	case token.OR:
		return 1
	case token.AND:
		return 2
	case token.EQ, token.NEQ:
		return 3
	case token.LANGLE, token.RANGLE, token.LEQ, token.GEQ:
		return 4
	case token.PIPE:
		return 5
	case token.CARET:
		return 6
	case token.AMP:
		return 7
	case token.SHL, token.SHR:
		return 8
	case token.PLUS, token.MINUS, token.PLUSPLUS:
		return 9
	case token.STAR, token.SLASH, token.PERCENT:
		return 10
	default:
		return 11
	}
}

func (p *printer) expr(e Expr, parentPrec int) {
	switch x := e.(type) {
	case *Ident:
		p.w(x.Name)
	case *Member:
		p.expr(x.X, 12)
		p.w("." + x.Name)
	case *IndexExpr:
		p.expr(x.X, 12)
		p.w("[")
		p.expr(x.Index, 0)
		p.w("]")
	case *CallExpr:
		p.expr(x.Fun, 12)
		p.w("(")
		for i, a := range x.Args {
			if i > 0 {
				p.w(", ")
			}
			p.expr(a, 0)
		}
		p.w(")")
	case *IntLit:
		if x.Width > 0 {
			p.f("%dw%s", x.Width, x.Val.String())
		} else {
			p.w(x.Val.String())
		}
	case *BoolLit:
		if x.Val {
			p.w("true")
		} else {
			p.w("false")
		}
	case *UnaryExpr:
		if parentPrec > 11 {
			p.w("(")
		}
		p.w(x.Op.String())
		p.expr(x.X, 11)
		if parentPrec > 11 {
			p.w(")")
		}
	case *BinaryExpr:
		pr := prec(x.Op)
		if pr < parentPrec {
			p.w("(")
		}
		// Every operator associates left but ->, which associates right.
		lp, rp := pr, pr+1
		if x.Op == token.ARROW {
			lp, rp = pr+1, pr
		}
		p.expr(x.X, lp)
		p.w(" " + x.Op.String() + " ")
		p.expr(x.Y, rp)
		if pr < parentPrec {
			p.w(")")
		}
	case *CastExpr:
		if parentPrec > 11 {
			p.w("(")
		}
		p.w("(")
		p.typ(x.Type)
		p.w(")")
		p.expr(x.X, 11)
		if parentPrec > 11 {
			p.w(")")
		}
	case *TernaryExpr:
		if parentPrec > 0 {
			p.w("(")
		}
		p.expr(x.Cond, 1)
		p.w(" ? ")
		p.expr(x.Then, 1)
		p.w(" : ")
		p.expr(x.Else, 0)
		if parentPrec > 0 {
			p.w(")")
		}
	case *DefaultExpr:
		p.w("default")
	default:
		p.f("/* unprintable expr %T */", e)
	}
}
