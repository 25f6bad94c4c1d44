package ir

import (
	"errors"
	"fmt"
	"math/big"
	"strings"

	"bf4/internal/p4/ast"
	"bf4/internal/p4/token"
	"bf4/internal/p4/types"
	"bf4/internal/smt"
)

// DropSpec is the egress_spec value that drops a packet (v1model/Tofino
// convention: port 511).
const DropSpec = 511

// Options control IR construction and instrumentation. The three bug
// classes of the paper (header validity, egress_spec, register bounds),
// dontCare marking and the egress control are always lowered. Fixes are
// not an option: they are edits of the program (fixes.Apply), lowered
// like the rest of it.
type Options struct {
	// CheckInfoFlow instruments information-flow tracking: shadow taint
	// variables, @sensitive sources and info-leak sink checks (see
	// taint.go). Off by default; the IR is unchanged when disabled.
	CheckInfoFlow bool
	// TaintDefaultPolicy additionally marks well-known privacy-relevant
	// fields (ipv4/ipv6 source addresses) as sensitive sources, beyond
	// explicit @sensitive annotations. Only meaningful with
	// CheckInfoFlow.
	TaintDefaultPolicy bool

	// Instrument, when non-nil, runs after lowering completes and may
	// splice additional instrumentation into the CFG before
	// passification — the hook the property DSL (internal/prop) uses to
	// compile user @assert/@assume predicates into BugAssertFail nodes.
	// It sees the finished program (anchors, instances, variables); an
	// error aborts the build. Because the hook travels inside Options,
	// the Fixes rebuild loop re-instruments the fixed program
	// automatically, so user properties survive re-verification.
	Instrument func(*Program) error
}

// DefaultOptions is the paper's configuration: the program as written,
// no fixes applied, no extension checks.
func DefaultOptions() Options { return Options{} }

// Build lowers a type-checked program to IR. See the package comment for
// what the lowering includes.
func Build(prog *ast.Program, info *types.Info, opts Options) (*Program, error) {
	name := "program"
	b := &builder{
		p:            NewProgram(name),
		info:         info,
		opts:         opts,
		memo:         make(map[string]*Node),
		consts:       make(map[*types.ConstVal]*smt.Term),
		ints:         make(map[*types.ConstVal]*big.Int),
		shadowInited: make(map[*Var]bool),
	}
	if err := b.run(prog); err != nil {
		return nil, err
	}
	if len(b.errs) > 0 {
		msgs := make([]string, len(b.errs))
		for i, e := range b.errs {
			msgs[i] = e.Error()
		}
		return nil, errors.New(strings.Join(msgs, "\n"))
	}
	if opts.Instrument != nil {
		if err := opts.Instrument(b.p); err != nil {
			return nil, err
		}
	}
	return b.p, nil
}

type builder struct {
	p    *Program
	info *types.Info
	opts Options
	errs []error

	headersStruct *ast.StructDecl
	metaStruct    *ast.StructDecl

	cur *Node // current chain tail

	// Per-control lowering context.
	ctl        *ast.ControlDecl
	roles      map[string]string    // param name -> canonical prefix
	actionArgs map[string]*smt.Term // bound action parameters during inlining
	exitTarget *Node
	inlining   int

	// stmtPos is the source position of the statement currently being
	// lowered; assign/havoc/branch nodes are stamped with it so the
	// static-analysis layer can report diagnostics at stable positions.
	// Synthetic regions (init, egress-spec epilogue) run with a zero pos.
	stmtPos token.Pos

	reads      map[string]bool // header paths read by the current lowering
	stackReads map[string]bool // stacks needing an underflow check

	memo          map[string]*Node // parser state memo: "state@budget"
	consts        map[*types.ConstVal]*smt.Term
	ints          map[*types.ConstVal]*big.Int // unsized consts' exact values; nil if not an int
	instanceCount map[string]int

	// Information-flow state (Options.CheckInfoFlow; see taint.go).
	shadowInited    map[*Var]bool           // shadows already initialized
	taintMemo       map[*smt.Term]*smt.Term // per-term taint transfer memo
	emitSinkHeaders map[string]bool         // header paths the deparser emits
	emitSinkFields  map[string]string       // field var name -> emitted header path

	accept  *Node
	reject  *Node
	unreach *Node
}

func (b *builder) errorf(pos token.Pos, format string, args ...interface{}) {
	if len(b.errs) < 30 {
		p := ""
		if pos.IsValid() {
			p = pos.String() + ": "
		}
		b.errs = append(b.errs, fmt.Errorf("%s%s", p, fmt.Sprintf(format, args...)))
	}
}

func (b *builder) f() *smt.Factory { return b.p.F }

// emit appends a node to the current chain.
func (b *builder) emit(n *Node) *Node {
	b.p.Edge(b.cur, n)
	b.cur = n
	return n
}

func (b *builder) nop(comment string) *Node {
	n := b.p.NewNode(Nop)
	n.Comment = comment
	return n
}

func (b *builder) assign(v *Var, rhs *smt.Term) {
	n := b.p.NewNode(Assign)
	n.Var = v
	n.Pos = b.stmtPos
	if v.Sort.IsBool() {
		rhs = b.toBool(rhs)
	} else {
		rhs = b.toBV(rhs, v.Sort.Width)
	}
	n.Expr = rhs
	b.emit(n)
	if b.opts.CheckInfoFlow {
		b.shadowAssign(v, rhs)
	}
}

func (b *builder) havoc(v *Var) {
	n := b.p.NewNode(Havoc)
	n.Var = v
	n.Pos = b.stmtPos
	b.emit(n)
	if b.opts.CheckInfoFlow {
		b.shadowHavoc(v)
	}
}

// branch emits a two-way branch and returns the two open chain tails.
// The caller resumes building each side by setting b.cur.
func (b *builder) branch(cond *smt.Term) (thenTail, elseTail *Node) {
	bn := b.p.NewNode(Branch)
	bn.Expr = b.toBool(cond)
	bn.Pos = b.stmtPos
	b.emit(bn)
	t := b.nop("then")
	e := b.nop("else")
	b.p.Edge(bn, t) // Succs[0] = true
	b.p.Edge(bn, e) // Succs[1] = false
	return t, e
}

// join merges open tails into a fresh nop and makes it current. Nil tails
// (terminated arms) are skipped.
func (b *builder) join(tails ...*Node) {
	j := b.nop("join")
	for _, t := range tails {
		if t != nil {
			b.p.Edge(t, j)
		}
	}
	b.cur = j
}

// bugHere terminates the current chain with a bug node.
func (b *builder) bugHere(kind BugKind, pos token.Pos, format string, args ...interface{}) {
	n := b.p.NewNode(BugTerm)
	n.Bug = kind
	n.Pos = pos
	n.Comment = fmt.Sprintf(format, args...)
	b.emit(n)
	b.p.Bugs = append(b.p.Bugs, n)
	b.cur = nil // chain terminated
}

// checkBug emits "if cond { bug } else { continue }".
func (b *builder) checkBug(cond *smt.Term, kind BugKind, pos token.Pos, format string, args ...interface{}) {
	if cond.IsFalse() {
		return
	}
	t, e := b.branch(cond)
	b.cur = t
	b.bugHere(kind, pos, format, args...)
	b.cur = e
}

// assume constrains the current path: the negation leads to unreachable.
func (b *builder) assume(cond *smt.Term) {
	if cond.IsTrue() {
		return
	}
	t, e := b.branch(cond)
	b.p.Edge(e, b.unreach)
	b.cur = t
}

func (b *builder) toBool(t *smt.Term) *smt.Term {
	if t.Sort().IsBool() {
		return t
	}
	return b.f().Not(b.f().Eq(t, b.f().BVConst64(0, t.Sort().Width)))
}

func (b *builder) toBV(t *smt.Term, w int) *smt.Term {
	if t.Sort().IsBool() {
		return b.f().Ite(t, b.f().BVConst64(1, w), b.f().BVConst64(0, w))
	}
	return b.f().Resize(t, w)
}

// ------------------------------------------------------------- run

func (b *builder) run(prog *ast.Program) error {
	pl := b.info.Pipeline
	if pl.Parser == nil && pl.Ingress == nil {
		return errors.New("ir: program has neither parser nor ingress control")
	}

	b.headersStruct, b.metaStruct = b.info.PipelineStructs()

	// Declare pipeline storage.
	if b.headersStruct != nil {
		b.declareStruct("hdr", b.headersStruct)
	}
	if b.metaStruct != nil {
		b.declareStruct("meta", b.metaStruct)
	}
	b.declareStruct("smeta", b.info.Structs["standard_metadata_t"])

	// Information flow: resolve which header writes are externally
	// visible before any lowering emits sink checks.
	b.computeEmitSinks(pl.Deparser)

	// Terminals.
	b.accept = b.p.NewNode(AcceptTerm)
	b.reject = b.p.NewNode(RejectTerm)
	b.unreach = b.p.NewNode(UnreachTerm)

	// Entry + initialization.
	b.p.Start = b.nop("start")
	b.cur = b.p.Start
	b.emitInit()

	b.p.EgressSpecSet = b.p.NewVar("$egress_spec_set", smt.BoolSort)
	b.assign(b.p.EgressSpecSet, b.f().False())

	// Parser.
	ingressEntry := b.nop("ingress-entry")
	b.p.IngressEntry = ingressEntry
	if pl.Parser != nil {
		b.ctl = nil
		b.roles = b.rolesOfParser(pl.Parser)
		b.initShadows()
		budget := b.unrollBudget(pl.Parser)
		entry := b.buildState(pl.Parser, "start", budget, ingressEntry, pl.Parser.P)
		b.p.Edge(b.cur, entry)
	} else {
		b.p.Edge(b.cur, ingressEntry)
	}

	// Ingress.
	b.cur = ingressEntry
	ingressEnd := b.nop("ingress-end")
	b.p.IngressEnd = ingressEnd
	if pl.Ingress != nil {
		b.buildControl(pl.Ingress, ingressEnd)
	}
	b.p.Edge(b.cur, ingressEnd)
	b.cur = ingressEnd

	// egress_spec-not-set check at end of ingress (paper §4.6).
	b.checkBug(b.f().Not(b.p.EgressSpecSet.Term), BugEgressSpecNotSet, token.Pos{},
		"egress_spec not set by end of ingress")

	// Dropped packets skip egress.
	spec := b.lookupVar("smeta.egress_spec")
	if spec != nil {
		dropT, contT := b.branch(b.f().Eq(spec.Term, b.f().BVConst64(DropSpec, 9)))
		b.p.Edge(dropT, b.accept)
		b.cur = contT
	}

	// Egress.
	if pl.Egress != nil {
		egressEnd := b.nop("egress-end")
		b.buildControl(pl.Egress, egressEnd)
		b.p.Edge(b.cur, egressEnd)
		b.cur = egressEnd
	}

	b.p.Edge(b.cur, b.accept)
	return nil
}

// emittedHeaders collects the header paths the deparser emits.
func (b *builder) emittedHeaders(dep *ast.ControlDecl) map[string]bool {
	savedCtl, savedRoles := b.ctl, b.roles
	b.ctl = dep
	b.roles = map[string]string{}
	for _, p := range dep.Params {
		b.roles[p.Name] = b.roleOfParam(p)
	}
	out := map[string]bool{}
	var walk func(s ast.Stmt)
	walk = func(s ast.Stmt) {
		switch x := s.(type) {
		case *ast.BlockStmt:
			for _, st := range x.Stmts {
				walk(st)
			}
		case *ast.IfStmt:
			walk(x.Then)
			if x.Else != nil {
				walk(x.Else)
			}
		case *ast.CallStmt:
			m, ok := x.Call.Fun.(*ast.Member)
			if !ok || m.Name != "emit" || len(x.Call.Args) != 1 {
				return
			}
			r := b.resolveRef(x.Call.Args[0])
			switch {
			case r.header != nil:
				out[r.header.Path] = true
			case r.stack != nil:
				for _, ep := range r.stack.Elems {
					out[ep] = true
				}
			}
		}
	}
	if dep.Apply != nil {
		walk(dep.Apply)
	}
	b.ctl, b.roles = savedCtl, savedRoles
	return out
}

// emitInit zeroes metadata and header validity, matching v1model
// semantics; packet-derived inputs (ingress_port, header field contents)
// stay unconstrained.
func (b *builder) emitInit() {
	for _, h := range sortedHeaders(b.p.Headers) {
		b.assign(h.Valid, b.f().False())
	}
	for _, s := range sortedStacks(b.p.Stacks) {
		b.assign(s.Next, b.f().BVConst64(0, 32))
	}
	zeroPrefix := func(prefix string) {
		for _, v := range b.p.VarList() {
			if strings.HasPrefix(v.Name, prefix+".") && !strings.Contains(v.Name, "$valid") {
				if v.Sort.IsBool() {
					b.assign(v, b.f().False())
				} else {
					b.assign(v, b.f().BVConst64(0, v.Sort.Width))
				}
			}
		}
	}
	zeroPrefix("meta")
	// standard_metadata: zero the output-ish fields, leave inputs free.
	for _, name := range []string{"egress_spec", "egress_port", "mcast_grp", "instance_type", "checksum_error", "priority"} {
		if v := b.lookupVar("smeta." + name); v != nil {
			b.assign(v, b.f().BVConst64(0, v.Sort.Width))
		}
	}
	// Shadows for everything declared so far (header fields, remaining
	// standard metadata): sensitive sources start all-tainted, the rest
	// public.
	b.initShadows()
}

func sortedHeaders(m map[string]*Header) []*Header {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sortStrings(keys)
	out := make([]*Header, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}

func sortedStacks(m map[string]*Stack) []*Stack {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sortStrings(keys)
	out := make([]*Stack, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func (b *builder) lookupVar(name string) *Var { return b.p.Vars[name] }

// ------------------------------------------------------------- declare

func (b *builder) declareStruct(prefix string, decl *ast.StructDecl) {
	if decl == nil {
		return
	}
	for _, fld := range decl.Fields {
		path := prefix + "." + fld.Name
		switch t := b.info.ResolveType(fld.Type).(type) {
		case *types.BitsType:
			b.p.NewVar(path, smt.BV(t.Width))
			b.markSensitive(path, fld, "")
		case *types.BoolT:
			b.p.NewVar(path, smt.BoolSort)
			b.markSensitive(path, fld, "")
		case *types.HeaderT:
			b.declareHeader(path, t.Decl)
		case *types.StructT:
			b.declareStruct(path, t.Decl)
		case *types.StackT:
			b.declareStack(path, t)
		default:
			b.errorf(fld.P, "unsupported field type %s for %s", t, path)
		}
	}
}

func (b *builder) declareHeader(path string, decl *ast.HeaderDecl) *Header {
	if h, ok := b.p.Headers[path]; ok {
		return h
	}
	h := &Header{Path: path, Decl: decl.Name}
	h.Valid = b.p.NewVar(path+".$valid", smt.BoolSort)
	for _, fld := range decl.Fields {
		w := types.WidthOf(b.info.ResolveType(fld.Type))
		if w == 0 {
			b.errorf(fld.P, "header %s field %s is not scalar", decl.Name, fld.Name)
			w = 1
		}
		h.Fields = append(h.Fields, b.p.NewVar(path+"."+fld.Name, smt.BV(w)))
		b.markSensitive(path+"."+fld.Name, fld, decl.Name)
	}
	b.p.Headers[path] = h
	return h
}

func (b *builder) declareStack(path string, t *types.StackT) {
	s := &Stack{Path: path, Size: t.Size}
	s.Next = b.p.NewVar(path+".$next", smt.BV(32))
	for i := 0; i < t.Size; i++ {
		ep := fmt.Sprintf("%s[%d]", path, i)
		b.declareHeader(ep, t.Elem.Decl)
		s.Elems = append(s.Elems, ep)
	}
	b.p.Stacks[path] = s
}

// rolesOfParser maps the parser's parameter names to canonical prefixes.
func (b *builder) rolesOfParser(pd *ast.ParserDecl) map[string]string {
	roles := map[string]string{}
	for _, p := range pd.Params {
		roles[p.Name] = b.roleOfParam(p)
	}
	return roles
}

func (b *builder) roleOfParam(p *ast.Param) string {
	switch t := b.info.ResolveType(p.Type).(type) {
	case *types.StructT:
		switch {
		case t.Decl.Name == "standard_metadata_t":
			return "smeta"
		case t.Decl == b.headersStruct:
			return "hdr"
		case t.Decl == b.metaStruct:
			return "meta"
		default:
			b.declareStruct(p.Name, t.Decl)
			return p.Name
		}
	case *types.HeaderT:
		b.declareHeader(p.Name, t.Decl)
		return p.Name
	case *types.ExternT:
		return "$packet"
	case *types.BitsType:
		b.p.NewVar(p.Name, smt.BV(t.Width))
		return p.Name
	case *types.BoolT:
		b.p.NewVar(p.Name, smt.BoolSort)
		return p.Name
	default:
		return p.Name
	}
}

// ------------------------------------------------------------- parser

// unrollBudget bounds parser state revisits: total stack capacity plus
// the number of states.
func (b *builder) unrollBudget(pd *ast.ParserDecl) int {
	budget := len(pd.States) + 2
	for _, s := range b.p.Stacks {
		budget += s.Size
	}
	return budget
}

// buildState returns the entry node for (state, budget), memoized. pos is
// the position of the transition (or parser declaration) naming the
// state, used for diagnostics.
func (b *builder) buildState(pd *ast.ParserDecl, name string, budget int, ingressEntry *Node, pos token.Pos) *Node {
	switch name {
	case "accept":
		return ingressEntry
	case "reject":
		return b.reject
	}
	if budget <= 0 {
		// The target bounds parser iterations; the packet is rejected.
		return b.reject
	}
	key := fmt.Sprintf("%s@%d", name, budget)
	if n, ok := b.memo[key]; ok {
		return n
	}
	var st *ast.StateDecl
	for _, s := range pd.States {
		if s.Name == name {
			st = s
			break
		}
	}
	if st == nil {
		b.errorf(pos, "parser: unknown state %s", name)
		return b.reject
	}
	entry := b.nop("state " + key)
	b.memo[key] = entry

	savedCur := b.cur
	b.cur = entry
	for _, s := range st.Stmts {
		b.lowerStmt(s)
		if b.cur == nil {
			break
		}
	}
	if b.cur != nil {
		b.lowerTransition(pd, st, budget, ingressEntry)
	}
	b.cur = savedCur
	return entry
}

func (b *builder) lowerTransition(pd *ast.ParserDecl, st *ast.StateDecl, budget int, ingressEntry *Node) {
	tr := st.Trans
	if tr == nil {
		b.p.Edge(b.cur, b.reject)
		b.cur = nil
		return
	}
	if tr.Select == nil {
		b.p.Edge(b.cur, b.buildState(pd, tr.Next, budget-1, ingressEntry, tr.P))
		b.cur = nil
		return
	}
	// Lower select keys once, with validity checks for header reads.
	b.beginReads()
	keys := make([]*smt.Term, len(tr.Select.Exprs))
	for i, e := range tr.Select.Exprs {
		keys[i] = b.lowerExpr(e, 0)
	}
	b.flushReadChecks(tr.P)
	if b.cur == nil {
		return
	}
	for _, c := range tr.Select.Cases {
		cond := b.f().True()
		for i, v := range c.Values {
			if i >= len(keys) {
				break
			}
			if _, isDefault := v.(*ast.DefaultExpr); isDefault {
				continue
			}
			val := b.lowerExpr(v, keys[i].Sort().Width)
			cond = b.f().And(cond, b.f().Eq(keys[i], b.toBV(val, keys[i].Sort().Width)))
		}
		if cond.IsTrue() {
			// Default (or all-default tuple) case: unconditional jump.
			b.p.Edge(b.cur, b.buildState(pd, c.Next, budget-1, ingressEntry, c.P))
			b.cur = nil
			return
		}
		t, e := b.branch(cond)
		b.p.Edge(t, b.buildState(pd, c.Next, budget-1, ingressEntry, c.P))
		b.cur = e
	}
	// No case matched: reject.
	b.p.Edge(b.cur, b.reject)
	b.cur = nil
}

// ------------------------------------------------------------- controls

func (b *builder) buildControl(cd *ast.ControlDecl, end *Node) {
	b.ctl = cd
	b.roles = map[string]string{}
	for _, p := range cd.Params {
		b.roles[p.Name] = b.roleOfParam(p)
	}
	b.initShadows()
	// Declare and initialize control locals.
	for _, l := range cd.Locals {
		switch x := l.(type) {
		case *ast.VarDecl:
			b.declareLocal(cd, x)
		case *ast.RegisterDecl:
			w := types.WidthOf(b.info.ResolveType(x.ElemType))
			b.p.Registers[x.Name] = &Register{Name: x.Name, Size: x.Size, ElemWidth: w}
		}
	}
	savedExit := b.exitTarget
	b.exitTarget = end
	for _, s := range cd.Apply.Stmts {
		b.lowerStmt(s)
		if b.cur == nil {
			// Terminated (exit/bug on all paths); subsequent statements
			// are dead.
			b.cur = b.nop("dead")
			break
		}
	}
	b.exitTarget = savedExit
}

func (b *builder) declareLocal(cd *ast.ControlDecl, vd *ast.VarDecl) *Var {
	name := cd.Name + "." + vd.Name
	t := b.info.ResolveType(vd.Type)
	switch x := t.(type) {
	case *types.BitsType:
		v := b.p.NewVar(name, smt.BV(x.Width))
		b.initShadows()
		if vd.Init != nil {
			b.beginReads()
			init := b.lowerExpr(vd.Init, x.Width)
			b.flushReadChecks(vd.P)
			if b.cur != nil {
				b.assign(v, init)
			}
		}
		return v
	case *types.BoolT:
		v := b.p.NewVar(name, smt.BoolSort)
		b.initShadows()
		if vd.Init != nil {
			b.beginReads()
			init := b.lowerExpr(vd.Init, 1)
			b.flushReadChecks(vd.P)
			if b.cur != nil {
				b.assign(v, init)
			}
		}
		return v
	default:
		b.errorf(vd.P, "unsupported local type %s", t)
		return b.p.NewVar(name, smt.BV(1))
	}
}

// ------------------------------------------------------------- reads

func (b *builder) beginReads() {
	b.reads = map[string]bool{}
	b.stackReads = map[string]bool{}
}

// flushReadChecks emits validity-bug checks for every header read since
// beginReads. The current chain continues on the valid path.
func (b *builder) flushReadChecks(pos token.Pos) {
	paths := make([]string, 0, len(b.reads))
	for p := range b.reads {
		paths = append(paths, p)
	}
	sortStrings(paths)
	for _, p := range paths {
		h := b.p.Headers[p]
		if h == nil || b.cur == nil {
			continue
		}
		b.checkBug(b.f().Not(h.Valid.Term), BugInvalidHeaderRead, pos,
			"read of field of invalid header %s", p)
	}
	stacks := make([]string, 0, len(b.stackReads))
	for p := range b.stackReads {
		stacks = append(stacks, p)
	}
	sortStrings(stacks)
	for _, p := range stacks {
		s := b.p.Stacks[p]
		if s == nil || b.cur == nil {
			continue
		}
		b.checkBug(b.f().Eq(s.Next.Term, b.f().BVConst64(0, 32)), BugStackUnderflow, pos,
			"access to last element of empty stack %s", p)
	}
	b.reads, b.stackReads = nil, nil
}

// markRead records a header read during expression lowering.
func (b *builder) markRead(headerPath string) {
	if b.reads != nil {
		b.reads[headerPath] = true
	}
}
