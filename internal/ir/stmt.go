package ir

import (
	"fmt"

	"bf4/internal/p4/ast"
	"bf4/internal/p4/token"
	"bf4/internal/p4/types"
	"bf4/internal/smt"
)

func (b *builder) lowerStmt(s ast.Stmt) {
	if b.cur == nil {
		return
	}
	if p := s.Pos(); p.IsValid() {
		b.stmtPos = p
	}
	switch x := s.(type) {
	case *ast.AssignStmt:
		b.lowerAssign(x)
	case *ast.CallStmt:
		b.lowerCallStmt(x)
	case *ast.IfStmt:
		b.lowerIf(x)
	case *ast.BlockStmt:
		for _, st := range x.Stmts {
			b.lowerStmt(st)
			if b.cur == nil {
				return
			}
		}
	case *ast.SwitchStmt:
		b.lowerSwitch(x)
	case *ast.ExitStmt, *ast.ReturnStmt:
		if b.exitTarget != nil {
			b.p.Edge(b.cur, b.exitTarget)
		} else {
			b.p.Edge(b.cur, b.accept)
		}
		b.cur = nil
	case *ast.VarDeclStmt:
		if b.ctl != nil {
			b.declareLocal(b.ctl, x.Decl)
		}
	case *ast.EmptyStmt:
	default:
		b.errorf(s.Pos(), "unsupported statement %T", s)
	}
}

// ------------------------------------------------------------- assign

func (b *builder) lowerAssign(st *ast.AssignStmt) {
	lhs := b.resolveRef(st.LHS)

	// Header-to-header copy gets the paper's instrumented structure.
	if lhs.header != nil {
		rhs := b.resolveRef(st.RHS)
		if rhs.header == nil {
			b.errorf(st.P, "cannot assign non-header to header %s", lhs.header.Path)
			return
		}
		b.lowerHeaderCopy(lhs.header, rhs.header, st.P)
		return
	}

	if lhs.v == nil {
		b.errorf(st.P, "cannot assign to %s", ast.PathString(st.LHS))
		return
	}

	// Evaluate the RHS, emitting read checks for both the RHS reads and
	// the LHS write target before the assignment executes.
	b.beginReads()
	want := lhs.v.Sort.Width
	if lhs.v.Sort.IsBool() {
		want = 1
	}
	rhsTerm := b.lowerExpr(st.RHS, want)
	b.flushReadChecks(st.P)
	if b.cur == nil {
		return
	}
	if lhs.fromHeader != "" {
		h := b.p.Headers[lhs.fromHeader]
		b.checkBug(b.f().Not(h.Valid.Term), BugInvalidHeaderWrite, st.P,
			"write to field of invalid header %s", lhs.fromHeader)
		if b.cur == nil {
			return
		}
	}
	if b.opts.CheckInfoFlow {
		b.checkLeakAssign(lhs.v, rhsTerm, st.P)
		if b.cur == nil {
			return
		}
	}
	b.assign(lhs.v, rhsTerm)
	b.noteEgressSpecWrite(lhs.v)
}

func (b *builder) noteEgressSpecWrite(v *Var) {
	if b.p.EgressSpecSet != nil && v.Name == "smeta.egress_spec" && b.cur != nil {
		b.assign(b.p.EgressSpecSet, b.f().True())
	}
}

// lowerHeaderCopy implements the paper's instrumented header assignment
// (§4.2 "increasing bug coverage"):
//
//	if (src.isValid())      { copy fields; dst.setValid(); }
//	else if (dst.isValid()) { bug(); }        // destroys a live header
//	else                    { dontCare(); }   // no-op the user can't want
func (b *builder) lowerHeaderCopy(dst, src *Header, pos token.Pos) {
	validT, invalidT := b.branch(src.Valid.Term)

	b.cur = validT
	if b.opts.CheckInfoFlow {
		b.checkLeakCopy(dst, src, pos)
	}
	for i, f := range src.Fields {
		if i < len(dst.Fields) {
			b.assign(dst.Fields[i], f.Term)
		}
	}
	b.assign(dst.Valid, b.f().True())
	copyDone := b.cur

	b.cur = invalidT
	liveT, deadT := b.branch(dst.Valid.Term)
	b.cur = liveT
	b.bugHere(BugHeaderOverwrite, pos,
		"copy from invalid header %s destroys live header %s", src.Path, dst.Path)
	b.cur = deadT
	dc := b.p.NewNode(DontCare)
	dc.Comment = fmt.Sprintf("no-op copy %s = %s", dst.Path, src.Path)
	b.emit(dc)
	noopDone := b.cur

	b.join(copyDone, noopDone)
}

// ------------------------------------------------------------- calls

func (b *builder) lowerCallStmt(st *ast.CallStmt) {
	c := st.Call
	switch fun := c.Fun.(type) {
	case *ast.Ident:
		b.lowerFreeCall(fun.Name, c)
	case *ast.Member:
		b.lowerMethodCall(fun, c)
	default:
		b.errorf(c.P, "unsupported call")
	}
}

func (b *builder) lowerFreeCall(name string, c *ast.CallExpr) {
	switch name {
	case "mark_to_drop":
		if spec := b.lookupVar("smeta.egress_spec"); spec != nil {
			b.assign(spec, b.f().BVConst64(DropSpec, 9))
			b.noteEgressSpecWrite(spec)
		}
		return
	case "random", "hash":
		// out-argument gets an arbitrary value.
		if len(c.Args) > 0 {
			b.havocLValue(c.Args[0], c.P)
		}
		return
	case "digest", "clone", "clone3", "resubmit", "recirculate":
		// No dataplane-visible effect in the verification model, but the
		// payload escapes the pipeline: an information-flow sink.
		if b.opts.CheckInfoFlow {
			b.checkLeakExtern(name, c)
		}
		return
	case "truncate", "log_msg", "verify_checksum", "update_checksum",
		"verify_checksum_with_payload", "update_checksum_with_payload",
		"assert", "assume":
		return // no dataplane-visible effect in the verification model
	}
	// Direct action invocation.
	if b.ctl != nil {
		if sc := b.info.ScopeOf(b.ctl); sc != nil {
			if ad, ok := sc.Actions[name]; ok {
				args := make([]*smt.Term, len(c.Args))
				b.beginReads()
				for i, a := range c.Args {
					w := 0
					if i < len(ad.Params) {
						w = types.WidthOf(b.info.ResolveType(ad.Params[i].Type))
					}
					args[i] = b.lowerExpr(a, w)
				}
				b.flushReadChecks(c.P)
				if b.cur == nil {
					return
				}
				b.inlineAction(ad, args)
				return
			}
		}
	}
	b.errorf(c.P, "unknown function %s", name)
}

// havocLValue gives an arbitrary value to an lvalue argument (hash/random
// destinations).
func (b *builder) havocLValue(e ast.Expr, pos token.Pos) {
	r := b.resolveRef(e)
	if r.v == nil {
		b.errorf(pos, "cannot havoc %s", ast.PathString(e))
		return
	}
	if r.fromHeader != "" {
		h := b.p.Headers[r.fromHeader]
		b.checkBug(b.f().Not(h.Valid.Term), BugInvalidHeaderWrite, pos,
			"write to field of invalid header %s", r.fromHeader)
		if b.cur == nil {
			return
		}
	}
	b.havoc(r.v)
	b.noteEgressSpecWrite(r.v)
}

func (b *builder) lowerMethodCall(fun *ast.Member, c *ast.CallExpr) {
	recv := b.resolveRef(fun.X)
	switch {
	case recv.table != nil:
		if fun.Name == "apply" {
			b.expandTable(recv.table, c.P)
			return
		}
	case recv.header != nil:
		switch fun.Name {
		case "setValid":
			b.assign(recv.header.Valid, b.f().True())
			return
		case "setInvalid":
			b.assign(recv.header.Valid, b.f().False())
			return
		case "isValid":
			return // value context handled elsewhere; as a statement: no-op
		}
	case recv.register != nil:
		b.lowerRegisterOp(recv.register, fun.Name, c)
		return
	case recv.packet:
		switch fun.Name {
		case "extract":
			if len(c.Args) == 1 {
				b.lowerExtract(c.Args[0], c.P)
				return
			}
		case "emit", "advance":
			return
		}
	case recv.stack != nil:
		switch fun.Name {
		case "push_front", "pop_front":
			n := 1
			if len(c.Args) == 1 {
				if lit, ok := c.Args[0].(*ast.IntLit); ok {
					n = int(lit.Val.Int64())
				}
			}
			b.lowerStackShift(recv.stack, fun.Name, n, c.P)
			return
		}
	}
	b.errorf(c.P, "unsupported method call %s.%s", ast.PathString(fun.X), fun.Name)
}

func (b *builder) lowerRegisterOp(reg *Register, method string, c *ast.CallExpr) {
	f := b.f()
	switch method {
	case "read": // reg.read(dst, idx)
		if len(c.Args) != 2 {
			b.errorf(c.P, "register.read takes 2 arguments")
			return
		}
		b.beginReads()
		idx := b.toBV(b.lowerExpr(c.Args[1], 32), 32)
		b.flushReadChecks(c.P)
		if b.cur == nil {
			return
		}
		b.checkBug(f.Uge(idx, f.BVConst64(int64(reg.Size), 32)), BugRegisterOOB, c.P,
			"register %s read index out of bounds (size %d)", reg.Name, reg.Size)
		if b.cur == nil {
			return
		}
		// Register contents are arbitrary (mutated by other packets and
		// the controller): the destination is havocked.
		b.havocLValue(c.Args[0], c.P)
	case "write": // reg.write(idx, val)
		if len(c.Args) != 2 {
			b.errorf(c.P, "register.write takes 2 arguments")
			return
		}
		b.beginReads()
		idx := b.toBV(b.lowerExpr(c.Args[0], 32), 32)
		b.lowerExpr(c.Args[1], reg.ElemWidth) // evaluate for read checks
		b.flushReadChecks(c.P)
		if b.cur == nil {
			return
		}
		b.checkBug(f.Uge(idx, f.BVConst64(int64(reg.Size), 32)), BugRegisterOOB, c.P,
			"register %s write index out of bounds (size %d)", reg.Name, reg.Size)
	default:
		b.errorf(c.P, "unsupported register method %s", method)
	}
}

// lowerExtract implements packet.extract for a header or stack.next.
func (b *builder) lowerExtract(arg ast.Expr, pos token.Pos) {
	r := b.resolveRef(arg)
	f := b.f()
	switch {
	case r.header != nil:
		for _, fv := range r.header.Fields {
			b.havoc(fv)
		}
		b.assign(r.header.Valid, f.True())
	case r.stack != nil: // stack.next
		s := r.stack
		b.checkBug(f.Uge(s.Next.Term, f.BVConst64(int64(s.Size), 32)), BugStackOverflow, pos,
			"extract into full header stack %s (size %d)", s.Path, s.Size)
		if b.cur == nil {
			return
		}
		var tails []*Node
		for i := 0; i < s.Size; i++ {
			t, e := b.branch(f.Eq(s.Next.Term, f.BVConst64(int64(i), 32)))
			b.cur = t
			h := b.p.Headers[s.Elems[i]]
			for _, fv := range h.Fields {
				b.havoc(fv)
			}
			b.assign(h.Valid, f.True())
			tails = append(tails, b.cur)
			b.cur = e
		}
		// next >= size is impossible here (checked above).
		b.p.Edge(b.cur, b.unreach)
		b.cur = nil
		b.join(tails...)
		b.assign(s.Next, f.Add(s.Next.Term, f.BVConst64(1, 32)))
	default:
		b.errorf(pos, "cannot extract into %s", ast.PathString(arg))
	}
}

// lowerStackShift implements push_front/pop_front with the paper's
// overflow/underflow bug checks.
func (b *builder) lowerStackShift(s *Stack, method string, count int, pos token.Pos) {
	f := b.f()
	if method == "push_front" {
		b.checkBug(f.Ugt(f.Add(s.Next.Term, f.BVConst64(int64(count), 32)), f.BVConst64(int64(s.Size), 32)),
			BugStackOverflow, pos, "push_front overflows stack %s", s.Path)
		if b.cur == nil {
			return
		}
		for i := s.Size - 1; i >= count; i-- {
			dst, src := b.p.Headers[s.Elems[i]], b.p.Headers[s.Elems[i-count]]
			for j, fv := range dst.Fields {
				b.assign(fv, src.Fields[j].Term)
			}
			b.assign(dst.Valid, src.Valid.Term)
		}
		for i := 0; i < count && i < s.Size; i++ {
			b.assign(b.p.Headers[s.Elems[i]].Valid, f.False())
		}
		b.assign(s.Next, f.Add(s.Next.Term, f.BVConst64(int64(count), 32)))
		return
	}
	// pop_front
	b.checkBug(f.Ult(s.Next.Term, f.BVConst64(int64(count), 32)),
		BugStackUnderflow, pos, "pop_front underflows stack %s", s.Path)
	if b.cur == nil {
		return
	}
	for i := 0; i+count < s.Size; i++ {
		dst, src := b.p.Headers[s.Elems[i]], b.p.Headers[s.Elems[i+count]]
		for j, fv := range dst.Fields {
			b.assign(fv, src.Fields[j].Term)
		}
		b.assign(dst.Valid, src.Valid.Term)
	}
	for i := s.Size - count; i < s.Size; i++ {
		if i >= 0 {
			b.assign(b.p.Headers[s.Elems[i]].Valid, f.False())
		}
	}
	b.assign(s.Next, f.Sub(s.Next.Term, f.BVConst64(int64(count), 32)))
}

// ------------------------------------------------------------- if/switch

func (b *builder) lowerIf(st *ast.IfStmt) {
	b.beginReads()
	cond := b.toBool(b.lowerExpr(st.Cond, 0))
	b.flushReadChecks(st.P)
	if b.cur == nil {
		return
	}
	t, e := b.branch(cond)
	// b.cur is the branch node itself; mark it as a source-level `if` so
	// the constant-condition lint only fires on user-written branches.
	b.cur.Comment = "if"
	b.cur = t
	b.lowerStmt(st.Then)
	thenTail := b.cur
	b.cur = e
	if st.Else != nil {
		b.lowerStmt(st.Else)
	}
	elseTail := b.cur
	b.join(thenTail, elseTail)
}

func (b *builder) lowerSwitch(st *ast.SwitchStmt) {
	recv := b.resolveRef(st.Table)
	if recv.table == nil {
		b.errorf(st.P, "switch on non-table")
		return
	}
	inst := b.expandTable(recv.table, st.P)
	if b.cur == nil || inst == nil {
		return
	}
	f := b.f()

	// Group fall-through labels with the next body.
	type arm struct {
		labels    []string
		body      *ast.BlockStmt
		isDefault bool
	}
	var arms []arm
	var pending []string
	pendingDefault := false
	for _, c := range st.Cases {
		if c.Label == "" {
			pendingDefault = true
		} else {
			pending = append(pending, c.Label)
		}
		if c.Body != nil {
			arms = append(arms, arm{labels: pending, body: c.Body, isDefault: pendingDefault})
			pending, pendingDefault = nil, false
		}
	}

	var tails []*Node
	var defaultArm *arm
	for i := range arms {
		if arms[i].isDefault {
			defaultArm = &arms[i]
		}
	}
	for i := range arms {
		a := &arms[i]
		if a.isDefault && len(a.labels) == 0 {
			continue // pure default handled at the end
		}
		cond := f.False()
		for _, lb := range a.labels {
			idx, ok := inst.ActIndex[lb]
			if !ok {
				b.errorf(st.P, "switch case %s is not an action of %s", lb, inst.Table.Name)
				continue
			}
			cond = f.Or(cond, f.Eq(inst.ActVar.Term, f.BVConst64(int64(idx), 8)))
		}
		t, e := b.branch(cond)
		b.cur = t
		b.lowerStmt(a.body)
		tails = append(tails, b.cur)
		b.cur = e
	}
	if defaultArm != nil {
		b.lowerStmt(defaultArm.body)
	}
	tails = append(tails, b.cur)
	b.join(tails...)
}

// ------------------------------------------------------------- actions

func (b *builder) inlineAction(ad *ast.ActionDecl, args []*smt.Term) {
	if b.inlining > 16 {
		b.errorf(ad.P, "action inlining too deep (recursive actions?)")
		return
	}
	saved := b.actionArgs
	bound := make(map[string]*smt.Term, len(ad.Params))
	for i, p := range ad.Params {
		if i >= len(args) {
			break
		}
		w := types.WidthOf(b.info.ResolveType(p.Type))
		t := args[i]
		if w > 0 && !t.Sort().IsBool() {
			t = b.f().Resize(t, w)
		}
		bound[p.Name] = t
	}
	b.actionArgs = bound
	b.inlining++
	for _, s := range ad.Body.Stmts {
		b.lowerStmt(s)
		if b.cur == nil {
			break
		}
	}
	b.inlining--
	b.actionArgs = saved
}

// ------------------------------------------------------------- tables

// tableMeta builds (once) the static metadata for a table.
func (b *builder) tableMeta(td *ast.TableDecl) *Table {
	if t, ok := b.p.Tables[td.Name]; ok {
		return t
	}
	t := &Table{Name: td.Name, Size: td.Size}
	for _, k := range td.Keys {
		kt := b.info.TypeOf(k.Expr)
		w := types.WidthOf(kt)
		if w == 0 {
			w = 32
		}
		t.Keys = append(t.Keys, &KeyInfo{
			Path:        ast.PathString(k.Expr),
			MatchKind:   k.MatchKind,
			Width:       w,
			Synthesized: k.Synthesized,
		})
	}
	sc := b.info.ScopeOf(b.ctl)
	actionInfo := func(ref *ast.ActionRef) *ActionInfo {
		ai := &ActionInfo{Name: ref.Name}
		if sc != nil {
			if ad, ok := sc.Actions[ref.Name]; ok {
				for _, p := range ad.Params {
					ai.Params = append(ai.Params, ParamInfo{Name: p.Name, Width: types.WidthOf(b.info.ResolveType(p.Type))})
				}
			}
		}
		return ai
	}
	for _, a := range td.Actions {
		t.Actions = append(t.Actions, actionInfo(a))
	}
	if td.Default != nil {
		t.Default = actionInfo(td.Default)
	} else {
		t.Default = &ActionInfo{Name: "NoAction"}
	}
	b.p.Tables[td.Name] = t
	return t
}

// lowerKeyExpr lowers a table key expression, returning the value term and
// the headers it reads.
func (b *builder) lowerKeyExpr(e ast.Expr, w int) (*smt.Term, []string) {
	b.beginReads()
	t := b.lowerExpr(e, w)
	var hdrs []string
	for h := range b.reads {
		hdrs = append(hdrs, h)
	}
	sortStrings(hdrs)
	b.reads, b.stackReads = nil, nil
	if t.Sort().IsBool() {
		t = b.toBV(t, 1)
	} else if w > 0 {
		t = b.f().Resize(t, w)
	}
	return t, hdrs
}

// expandTable performs the paper's Figure 4 expansion for one apply call.
func (b *builder) expandTable(td *ast.TableDecl, pos token.Pos) *TableInstance {
	f := b.f()
	t := b.tableMeta(td)
	if b.instanceCount == nil {
		b.instanceCount = map[string]int{}
	}
	seq := b.instanceCount[t.Name]
	b.instanceCount[t.Name]++

	inst := &TableInstance{
		Table:       t,
		Seq:         seq,
		ParamVars:   map[string][]*Var{},
		ActIndex:    map[string]int{},
		ActionRange: map[string][2]int{},
	}
	pfx := inst.Prefix()
	mkVar := func(name string, sort smt.Sort) *Var {
		v := b.p.NewVar(pfx+"."+name, sort)
		v.IsControl = true
		return v
	}
	inst.HitVar = mkVar("hit", smt.BoolSort)
	inst.ActVar = mkVar("action_run", smt.BV(8))
	for j, k := range t.Keys {
		inst.KeyVars = append(inst.KeyVars, mkVar(fmt.Sprintf("key%d", j), smt.BV(k.Width)))
		if k.MatchKind == "ternary" || k.MatchKind == "lpm" {
			inst.MaskVars = append(inst.MaskVars, mkVar(fmt.Sprintf("mask%d", j), smt.BV(k.Width)))
		} else {
			inst.MaskVars = append(inst.MaskVars, nil)
		}
	}
	sc := b.info.ScopeOf(b.ctl)
	for i, a := range t.Actions {
		inst.ActIndex[a.Name] = i
		var pv []*Var
		for _, p := range a.Params {
			pv = append(pv, mkVar(a.Name+"."+p.Name, smt.BV(p.Width)))
		}
		inst.ParamVars[a.Name] = pv
	}
	defIdx, defListed := inst.ActIndex[t.Default.Name]
	if !defListed {
		defIdx = len(t.Actions)
		inst.ActIndex[t.Default.Name] = defIdx
	}
	for _, p := range t.Default.Params {
		inst.DefaultParamVars = append(inst.DefaultParamVars, mkVar("default."+p.Name, smt.BV(p.Width)))
	}
	b.p.Instances = append(b.p.Instances, inst)

	// Assert point.
	ap := b.p.NewNode(AssertPoint)
	ap.Instance = inst
	ap.Pos = pos
	b.emit(ap)
	inst.Apply = ap

	// Lower key expressions at the apply point.
	keyTerms := make([]*smt.Term, len(t.Keys))
	keyReads := make([][]string, len(t.Keys))
	for j, k := range t.Keys {
		keyTerms[j], keyReads[j] = b.lowerKeyExpr(td.Keys[j].Expr, k.Width)
	}
	inst.KeyTerms = keyTerms

	// Information flow: key values are visible to the control plane
	// (counters, digests, match statistics), so a tainted key leaks.
	if b.opts.CheckInfoFlow {
		for j, k := range t.Keys {
			if b.cur == nil {
				continue
			}
			b.checkLeakTaint(b.taintOf(keyTerms[j]), "table-key",
				fmt.Sprintf("%s of table %s", k.Path, t.Name), pos)
		}
		if b.cur == nil {
			return inst
		}
	}

	hitT, missT := b.branch(inst.HitVar.Term)

	// --- hit path ---
	// All match relations are assumed first, then the key-read bug
	// checks. The order does not change the set of buggy executions but
	// lets Fast-Infer's symbolic execution rewrite packet variables in
	// terms of entry variables before the checks are reached.
	b.cur = hitT
	for j := range t.Keys {
		var match *smt.Term
		if inst.MaskVars[j] != nil {
			match = f.Eq(f.BVAnd(keyTerms[j], inst.MaskVars[j].Term),
				f.BVAnd(inst.KeyVars[j].Term, inst.MaskVars[j].Term))
		} else {
			match = f.Eq(keyTerms[j], inst.KeyVars[j].Term)
		}
		b.assume(match)
	}
	for j, k := range t.Keys {
		// Key-read bugs: evaluating a key over an invalid header is
		// undefined. For ternary/lpm the read only happens under a
		// nonzero mask (the paper's nat example); for exact it
		// always happens on a hit.
		for _, hp := range keyReads[j] {
			h := b.p.Headers[hp]
			if h == nil || b.cur == nil {
				continue
			}
			badCond := f.Not(h.Valid.Term)
			if inst.MaskVars[j] != nil {
				badCond = f.And(badCond, f.Not(f.Eq(inst.MaskVars[j].Term, f.BVConst64(0, k.Width))))
			}
			b.checkBug(badCond, BugInvalidKeyRead, pos,
				"table %s key %s reads invalid header %s", t.Name, k.Path, hp)
		}
	}
	var hitTails []*Node
	if b.cur != nil {
		// Dispatch on the chosen action.
		for i, a := range t.Actions {
			tb, eb := b.branch(f.Eq(inst.ActVar.Term, f.BVConst64(int64(i), 8)))
			b.cur = tb
			startID := b.p.nextID
			if ad := b.lookupAction(sc, a.Name); ad != nil {
				args := make([]*smt.Term, len(inst.ParamVars[a.Name]))
				for k2, pv := range inst.ParamVars[a.Name] {
					args[k2] = pv.Term
				}
				b.inlineAction(ad, args)
			}
			inst.ActionRange[a.Name] = [2]int{startID, b.p.nextID - 1}
			hitTails = append(hitTails, b.cur)
			b.cur = eb
		}
		// action_run must be one of the bound actions.
		b.p.Edge(b.cur, b.unreach)
		b.cur = nil
	}

	// --- miss path: run the default action ---
	b.cur = missT
	b.assign(inst.ActVar, f.BVConst64(int64(defIdx), 8))
	defStartID := b.p.nextID
	if ad := b.lookupAction(sc, t.Default.Name); ad != nil {
		var args []*smt.Term
		var declArgs []ast.Expr
		if td.Default != nil {
			declArgs = td.Default.Args
		}
		for i := range t.Default.Params {
			if i < len(declArgs) {
				args = append(args, b.lowerExpr(declArgs[i], t.Default.Params[i].Width))
			} else {
				args = append(args, inst.DefaultParamVars[i].Term)
			}
		}
		b.inlineAction(ad, args)
	}
	if _, dup := inst.ActionRange[t.Default.Name]; !dup {
		inst.ActionRange[t.Default.Name] = [2]int{defStartID, b.p.nextID - 1}
	}
	missTail := b.cur

	tails := append(hitTails, missTail)
	b.join(tails...)
	inst.Join = b.cur
	return inst
}

func (b *builder) lookupAction(sc *types.Scope, name string) *ast.ActionDecl {
	if name == "NoAction" {
		return types.NoAction
	}
	if sc != nil {
		if ad, ok := sc.Actions[name]; ok {
			return ad
		}
	}
	return nil
}
