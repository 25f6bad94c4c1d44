// Information-flow (taint) instrumentation. Enabled by
// Options.CheckInfoFlow, the builder gives every data variable v a
// shadow variable v.$taint of the same shape (BV(w) mask for
// bitvectors, Bool for booleans) tracking which bits of v may derive
// from a sensitive source. Sources are header/struct fields annotated
// @sensitive, plus — under Options.TaintDefaultPolicy — well-known
// privacy-relevant fields (ipv4/ipv6 source addresses). Shadows are
// initialized to all-ones for sources and zero otherwise, re-tainted on
// every havoc, and updated after every assignment with a taint term
// computed by a per-operator transfer function over the RHS.
//
// At each sink (emitted header field writes, egress-visible standard
// metadata, table keys, clone/digest payloads) the builder emits a
// BugInfoLeak check asserting the written value's taint is nonzero —
// the same branch/bug-terminal shape as every other instrumented check,
// so wp, slicing, the solver and Infer all treat it uniformly. The
// dataflow pass (internal/analysis/taint.go) abstractly executes the
// very same shadow assignments with smt.Eval over constant masks, which
// makes the static label lattice agree with the solver's shadow
// encoding by construction: a sink the dataflow proves untainted is
// untainted on every path, and a dataflow alarm the solver refutes is a
// genuinely infeasible flow (reported "dismissed").
//
// The transfer is bit-precise where a mask is: x & c keeps x's taint on
// c's one bits only and x | c on c's zero bits only, so masking drops
// taint exactly where bits are discarded. It is exhaustive over smt.Op:
// TestEveryOpEverywhere runs a term of every operator through it.
package ir

import (
	"fmt"
	"strings"

	"bf4/internal/p4/ast"
	"bf4/internal/p4/token"
	"bf4/internal/smt"
)

// TaintSuffix is the name suffix of shadow taint variables.
const TaintSuffix = ".$taint"

// ShadowBase returns the data variable name a shadow taint variable
// tracks, and whether name is a shadow at all.
func ShadowBase(name string) (string, bool) {
	if strings.HasSuffix(name, TaintSuffix) {
		return strings.TrimSuffix(name, TaintSuffix), true
	}
	return "", false
}

// shadowed reports whether v carries a shadow taint variable: data
// variables only — control variables (table entries come from the
// controller, not the packet) and builder-internal $-variables
// (validity bits, stack counters, the egress-spec shadow, and the taint
// shadows themselves) do not.
func shadowed(v *Var) bool {
	return !v.IsControl && !strings.Contains(v.Name, "$")
}

// shadowVar interns the shadow taint variable for v.
func (b *builder) shadowVar(v *Var) *Var {
	s := smt.BoolSort
	if !v.Sort.IsBool() {
		s = smt.BV(v.Sort.Width)
	}
	return b.p.NewVar(v.Name+TaintSuffix, s)
}

// zeroTaint is the no-bits-tainted mask for a value of sort s.
func (b *builder) zeroTaint(s smt.Sort) *smt.Term {
	if s.IsBool() {
		return b.f().False()
	}
	return b.f().BVConst64(0, s.Width)
}

// fullTaint is the every-bit-tainted mask for v.
func (b *builder) fullTaint(v *Var) *smt.Term {
	if v.Sort.IsBool() {
		return b.f().True()
	}
	return b.f().BVConst(smt.Mask(v.Sort.Width), v.Sort.Width)
}

// sourceTaint is the mask a fresh (initialized or havocked) value of v
// carries: all-ones for sensitive sources, zero otherwise. Sensitive
// fields are re-tainted on every havoc — extern outputs landing in a
// field the policy marks sensitive are conservatively treated as
// sensitive again.
func (b *builder) sourceTaint(v *Var) *smt.Term {
	if b.p.Sensitive[v.Name] != nil {
		return b.fullTaint(v)
	}
	return b.zeroTaint(v.Sort)
}

// markSensitive records path as a taint source if fld carries a
// @sensitive annotation, or (under the default policy) if it is a
// well-known sensitive field of declType.
func (b *builder) markSensitive(path string, fld *ast.Field, declType string) {
	if !b.opts.CheckInfoFlow {
		return
	}
	for _, a := range fld.Annots {
		if a == "sensitive" {
			b.p.Sensitive[path] = &SensitiveSource{Origin: "annot", Pos: fld.P}
			return
		}
	}
	if b.opts.TaintDefaultPolicy && defaultSensitive(declType, fld.Name) {
		b.p.Sensitive[path] = &SensitiveSource{Origin: "policy", Pos: fld.P}
	}
}

// defaultSensitive is the built-in policy: source addresses of IP
// headers identify the sender and are privacy-relevant by default.
func defaultSensitive(declType, fieldName string) bool {
	d := strings.ToLower(declType)
	if !strings.HasPrefix(d, "ipv4") && !strings.HasPrefix(d, "ipv6") {
		return false
	}
	return fieldName == "srcAddr" || fieldName == "src_addr"
}

// emitShadow appends a raw shadow assignment (bypassing assign(), which
// would recurse into the shadow hooks).
func (b *builder) emitShadow(v *Var, taint *smt.Term) {
	n := b.p.NewNode(Assign)
	n.Var = b.shadowVar(v)
	n.Expr = taint
	n.Pos = b.stmtPos
	b.emit(n)
}

// initShadows emits source-taint initializations for every data
// variable declared so far whose shadow has not been initialized yet.
// Called after each declaration wave (pipeline storage, parser params,
// control params/locals) so every shadow is defined before first use.
func (b *builder) initShadows() {
	if !b.opts.CheckInfoFlow || b.cur == nil {
		return
	}
	vars := b.p.VarList()
	for _, v := range vars {
		if !shadowed(v) || b.shadowInited[v] {
			continue
		}
		b.shadowInited[v] = true
		b.emitShadow(v, b.sourceTaint(v))
	}
}

// shadowAssign mirrors an assignment v := rhs onto v's shadow:
// v.$taint := T(rhs), where T is the per-operator taint transfer.
func (b *builder) shadowAssign(v *Var, rhs *smt.Term) {
	if !b.opts.CheckInfoFlow || !shadowed(v) || b.cur == nil {
		return
	}
	b.shadowInited[v] = true
	b.emitShadow(v, b.taintOf(rhs))
}

// shadowHavoc mirrors a havoc of v onto its shadow: fresh values carry
// the source taint (all-ones for sensitive fields, zero otherwise).
func (b *builder) shadowHavoc(v *Var) {
	if !b.opts.CheckInfoFlow || !shadowed(v) || b.cur == nil {
		return
	}
	b.shadowInited[v] = true
	b.emitShadow(v, b.sourceTaint(v))
}

// ------------------------------------------------------------ transfer

// taintOf computes the shadow taint term of t: a term over shadow
// variables (and constants) whose value under any assignment of the
// shadows is the taint mask of t's value. Memoized per term.
func (b *builder) taintOf(t *smt.Term) *smt.Term {
	if b.taintMemo == nil {
		b.taintMemo = make(map[*smt.Term]*smt.Term)
	}
	if m, ok := b.taintMemo[t]; ok {
		return m
	}
	res := b.taintOfRaw(t)
	b.taintMemo[t] = res
	return res
}

// nonzero converts a taint term to "some bit is tainted".
func (b *builder) nonzero(taint *smt.Term) *smt.Term {
	if taint.Sort().IsBool() {
		return taint
	}
	return b.f().Not(b.f().Eq(taint, b.f().BVConst64(0, taint.Sort().Width)))
}

// anyTainted is the coarse boolean transfer: the result is tainted iff
// any argument carries taint.
func (b *builder) anyTainted(args []*smt.Term) *smt.Term {
	out := b.f().False()
	for _, a := range args {
		out = b.f().Or(out, b.nonzero(b.taintOf(a)))
	}
	return out
}

// orTaints folds bitwise-or over the taints of args (all same width).
func (b *builder) orTaints(args []*smt.Term) *smt.Term {
	out := b.taintOf(args[0])
	for _, a := range args[1:] {
		out = b.f().BVOr(out, b.taintOf(a))
	}
	return out
}

// smearUp propagates taint upward through carry chains: bit i of an
// add/sub/mul result depends on bits <= i of the operands, so a taint
// mask m becomes m | m<<1 | m<<2 | ... — computed in log2(w) or-shift
// steps so the SMT encoding stays small.
func (b *builder) smearUp(taint *smt.Term, w int) *smt.Term {
	for sh := 1; sh < w; sh <<= 1 {
		taint = b.f().BVOr(taint, b.f().Shl(taint, b.f().BVConst64(int64(sh), w)))
	}
	return taint
}

// taintOfRaw is the per-operator transfer function, exhaustive over
// smt.Op (TestEveryOpEverywhere).
func (b *builder) taintOfRaw(t *smt.Term) *smt.Term {
	f := b.f()
	switch t.Op() {
	case smt.OpTrue, smt.OpFalse:
		return f.False()
	case smt.OpConst:
		return f.BVConst64(0, t.Sort().Width)
	case smt.OpVar:
		if _, isShadow := ShadowBase(t.Name()); isShadow {
			// Shadows of shadows don't exist; treat as public.
			return b.zeroTaint(t.Sort())
		}
		v := b.p.Vars[t.Name()]
		if v == nil || !shadowed(v) {
			// Control variables and builder-internal state are public.
			return b.zeroTaint(t.Sort())
		}
		return b.shadowVar(v).Term
	case smt.OpNot:
		return b.taintOf(t.Arg(0))
	case smt.OpAnd, smt.OpOr, smt.OpXor,
		smt.OpEq, smt.OpUlt, smt.OpUle, smt.OpSlt, smt.OpSle:
		// Boolean connectives and comparisons: one boolean of output,
		// tainted iff any input bit is.
		return b.anyTainted(t.Args())
	case smt.OpIte:
		condT := b.nonzero(b.taintOf(t.Arg(0)))
		a, c := b.taintOf(t.Arg(1)), b.taintOf(t.Arg(2))
		// A tainted condition taints every bit of the selected value;
		// otherwise a bit is tainted if it may come from a tainted bit
		// of either branch.
		return f.Ite(condT, f.BVConst(smt.Mask(t.Sort().Width), t.Sort().Width), f.BVOr(a, c))
	case smt.OpAdd, smt.OpSub, smt.OpMul:
		return b.smearUp(b.orTaints(t.Args()), t.Sort().Width)
	case smt.OpNeg:
		return b.smearUp(b.taintOf(t.Arg(0)), t.Sort().Width)
	case smt.OpBVAnd, smt.OpBVOr:
		x, c := t.Arg(0), t.Arg(1)
		if x.IsConst() {
			x, c = c, x
		}
		if !c.IsConst() {
			return b.orTaints(t.Args())
		}
		// A constant mask fixes the bits it clears (and) or sets (or):
		// those bits of the result carry nothing of x.
		if t.Op() == smt.OpBVOr {
			c = f.BVNot(c)
		}
		return f.BVAnd(b.taintOf(x), c)
	case smt.OpBVXor:
		return b.orTaints(t.Args())
	case smt.OpBVNot:
		return b.taintOf(t.Arg(0))
	case smt.OpShl, smt.OpLshr, smt.OpAshr:
		val, sh := t.Arg(0), t.Arg(1)
		tv := b.taintOf(val)
		if sh.IsConst() {
			// Constant shift: shift the mask the same way. Ashr smears
			// the sign bit's taint into the replicated high bits, which
			// is exactly the arithmetic-shift dependency.
			switch t.Op() {
			case smt.OpShl:
				return f.Shl(tv, sh)
			case smt.OpLshr:
				return f.Lshr(tv, sh)
			default:
				return f.Ashr(tv, sh)
			}
		}
		// Variable shift: any taint anywhere may move anywhere.
		w := t.Sort().Width
		any := f.Or(b.nonzero(tv), b.nonzero(b.taintOf(sh)))
		return f.Ite(any, f.BVConst(smt.Mask(w), w), f.BVConst64(0, w))
	case smt.OpConcat:
		return f.Concat(b.taintOf(t.Arg(0)), b.taintOf(t.Arg(1)))
	case smt.OpExtract:
		hi, lo := t.ExtractBounds()
		return f.Extract(b.taintOf(t.Arg(0)), hi, lo)
	case smt.OpZExt:
		return f.ZExt(b.taintOf(t.Arg(0)), t.Sort().Width)
	case smt.OpSExt:
		// Sign extension replicates the sign bit: its taint (the mask's
		// own sign bit) replicates with it.
		return f.SExt(b.taintOf(t.Arg(0)), t.Sort().Width)
	}
	panic(fmt.Sprintf("ir: no taint transfer for smt op %v", t.Op()))
}

// ------------------------------------------------------------ sinks

// sinkNouns renders sink classes for diagnostics.
var sinkNouns = map[string]string{
	"emit-field":     "emitted header field",
	"emit-copy":      "emitted header",
	"egress-meta":    "egress-visible metadata field",
	"table-key":      "table key",
	"extern-payload": "extern payload",
}

// egressMetaSinks are the standard-metadata fields visible beyond the
// switch (next-hop selection and multicast group).
var egressMetaSinks = map[string]bool{
	"smeta.egress_spec": true,
	"smeta.egress_port": true,
	"smeta.mcast_grp":   true,
}

// computeEmitSinks records which header paths (and their field
// variables) the deparser emits, i.e. which writes are externally
// visible. Must run before control lowering.
func (b *builder) computeEmitSinks(dep *ast.ControlDecl) {
	if !b.opts.CheckInfoFlow || dep == nil {
		return
	}
	b.emitSinkHeaders = b.emittedHeaders(dep)
	b.emitSinkFields = make(map[string]string)
	for path := range b.emitSinkHeaders {
		h := b.p.Headers[path]
		if h == nil {
			continue
		}
		for _, fv := range h.Fields {
			b.emitSinkFields[fv.Name] = path
		}
	}
}

// checkLeakTaint emits the BugInfoLeak check for a precomputed taint
// term: branch into a bug terminal, continue on the other path — the
// same branch/nop/bug shape as checkBug, recognized by guardOf. Values
// the transfer proves untainted (constants, pure control-plane data)
// produce no bug node at all.
//
// Unlike safety checks, a leak check must not assume it passed on the
// fall-through path: sinks are independent observation points, and a
// tainted value typically reaches several (assuming taint == 0 after
// the first check would mask every later sink on the same value). The
// guard is therefore nd && taint != 0 for a fresh free boolean nd: the
// bug's reachability condition keeps the exact satisfiability of
// taint != 0 on the path (nd is unconstrained), while the fall-through
// constraint !(nd && taint != 0) is discharged by nd == false without
// constraining the taint.
func (b *builder) checkLeakTaint(taint *smt.Term, sink, dest string, pos token.Pos) {
	if !b.opts.CheckInfoFlow || b.cur == nil {
		return
	}
	nz := b.nonzero(taint)
	if nz.IsFalse() {
		return
	}
	nd := b.p.NewVar(fmt.Sprintf("$iflow.nd.%d", len(b.p.Bugs)), smt.BoolSort)
	cond := b.f().And(nd.Term, nz)
	t, e := b.branch(cond)
	b.cur = t
	n := b.p.NewNode(BugTerm)
	n.Bug = BugInfoLeak
	n.Pos = pos
	n.Comment = fmt.Sprintf("sensitive data reaches %s %s", sinkNouns[sink], dest)
	n.Leak = &LeakInfo{Dest: dest, Taint: taint}
	b.emit(n)
	b.p.Bugs = append(b.p.Bugs, n)
	b.cur = e
}

// checkLeakAssign instruments a scalar assignment when the destination
// is a sink: a field of an emitted header, or egress-visible standard
// metadata. Identity rewrites (v := v) carry no new flow.
func (b *builder) checkLeakAssign(v *Var, rhs *smt.Term, pos token.Pos) {
	if !b.opts.CheckInfoFlow || b.cur == nil || rhs == v.Term {
		return
	}
	switch {
	case egressMetaSinks[v.Name]:
		b.checkLeakTaint(b.taintOf(rhs), "egress-meta", v.Name, pos)
	case b.emitSinkFields[v.Name] != "":
		b.checkLeakTaint(b.taintOf(rhs), "emit-field", v.Name, pos)
	}
}

// checkLeakCopy instruments a header-to-header copy whose destination
// the deparser emits: the flow exists if any source field is tainted.
func (b *builder) checkLeakCopy(dst, src *Header, pos token.Pos) {
	if !b.opts.CheckInfoFlow || b.cur == nil || dst == src {
		return
	}
	if !b.emitSinkHeaders[dst.Path] {
		return
	}
	terms := make([]*smt.Term, 0, len(src.Fields))
	for i, fv := range src.Fields {
		if i < len(dst.Fields) {
			terms = append(terms, fv.Term)
		}
	}
	if len(terms) == 0 {
		return
	}
	b.checkLeakTaint(b.anyTainted(terms), "emit-copy",
		fmt.Sprintf("%s (copied from %s)", dst.Path, src.Path), pos)
}

// checkLeakExtern instruments clone/digest/resubmit/recirculate
// payloads: their arguments reach the controller or another pipeline
// pass and are externally visible.
func (b *builder) checkLeakExtern(name string, c *ast.CallExpr) {
	if !b.opts.CheckInfoFlow || b.cur == nil {
		return
	}
	for _, a := range c.Args {
		r := b.resolveRef(a)
		switch {
		case r.v != nil:
			b.checkLeakTaint(b.taintOf(r.v.Term), "extern-payload",
				fmt.Sprintf("%s (%s)", ast.PathString(a), name), c.P)
		case r.header != nil:
			terms := make([]*smt.Term, 0, len(r.header.Fields))
			for _, fv := range r.header.Fields {
				terms = append(terms, fv.Term)
			}
			if len(terms) > 0 {
				b.checkLeakTaint(b.anyTainted(terms), "extern-payload",
					fmt.Sprintf("%s (%s)", r.header.Path, name), c.P)
			}
		}
	}
}
