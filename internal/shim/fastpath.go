package shim

import (
	"fmt"

	"bf4/internal/dataplane"
	"bf4/internal/smt"
	"bf4/internal/spec"
)

// This file is the shim's binding plan and its fast tier. At compile time
// every control variable the forbidden conditions mention is resolved,
// once, against the table whose entries bind it (controlVars owns the
// naming), and each condition is told which table's shadow entries it
// scans, if any. Validation fills the variables from that one list on
// either tier — registers for the bytecode programs the conditions are
// lowered into (internal/smt/lower.go), an smt.Env for the term evaluator
// — so the tiers differ only in how a term is evaluated (condition.holds)
// and in which shadow entries a scan visits. A variable of width w takes
// ⌈w/64⌉ registers, its value's limbs (dataplane.Value) masked to w, so a
// 128-bit key is two words copied, not a bignum. Only conditions with an
// operator the lowerer does not take at widths above 64 (arithmetic,
// shifts, signed compares) stay on the term tier when the fast path is
// on, each evaluation counted as a slow-path hit; SetFastpath(false) puts
// all of them there, as the reference the differential harness, the
// fuzzers and bench/ compare with.
//
// A scanning condition's top-level conjuncts come in three kinds. Guards
// read no variable of the scanned table: run on the update's registers
// first, a false one decides the condition without a scan. Filters read
// the scanned table's variables and none of the updated table's: run once
// per shadow entry when it is committed, they decide which entries can
// ever complete the condition, and a shim keeps only those as the
// condition's candidate rows (Shim.cands, kept by keepRows). Joins read
// both and stay in the full program, which the fast tier's scan runs on
// every candidate. Both cuts are exact: a false conjunct makes the whole
// term false, whatever the other table binds.
//
// What makes one plan enough is the boundary check (schema.go): an entry
// that reaches a binder has its table's key count, an action of the table
// with that action's parameter count, and values that fit their declared
// widths, so a binder reads e.Keys[j] and e.Params[j] as they are and a
// value's limbs are its registers. Variables that
// neither the updated nor the scanned table binds read zero on both tiers
// (the evaluator's unbound-variable convention; lowered to the constant).
//
// Plan compilation is two-pass. Registers are shared by every program of
// a table's cluster and must all be allocated before any program's
// temporaries, so pass one resolves the variables of every condition
// (fixing the register layout, including each scanned table's region) and
// pass two lowers the conditions, their guards and their filters with
// temporaries above the last slot.

type varKind uint8

const (
	varHit       varKind = iota // <prefix>.hit: true under an entry
	varActionRun                // <prefix>.action_run: index of the entry's action
	varKey                      // <prefix>.key<j>: the entry's j-th key value
	varMask                     // <prefix>.mask<j>: its ternary mask or lpm prefix mask
	varParam                    // <prefix>.<action>.<param>: j-th argument, under entries running that action
)

// boundVar is one control variable, resolved against the table whose
// entries bind it. The same name may be declared at different sorts by
// different assertions; each (name, sort) pair is its own boundVar.
type boundVar struct {
	name string
	kind varKind
	j    int     // key index (varKey, varMask) or parameter index (varParam)
	act  *action // varParam: the action that takes the parameter
	// varMask: full is the mask of a ternary key matched with none (or -1)
	// and of an lpm key matched whole; prefix[n] that of an n-bit prefix
	// (nil for a ternary key).
	full   dataplane.Value
	prefix []dataplane.Value
	width  int // sort the conditions read it at (0 = bool)
	// slot is its first register of smt.Limbs(width), one limb each.
	slot int
}

// value is what entry e, running act, binds v to: zero for a parameter of
// an action e does not run, which is what an unbound variable reads.
func (v *boundVar) value(act *action, e *dataplane.Entry) dataplane.Value {
	switch v.kind {
	case varHit:
		return one
	case varActionRun:
		return act.run
	case varKey:
		return e.Keys[v.j].Value
	case varMask:
		k := &e.Keys[v.j]
		switch {
		case v.prefix != nil && k.PrefixLen >= 0:
			return v.prefix[k.PrefixLen]
		case v.prefix != nil || k.MaskKind != dataplane.MaskBits:
			return v.full
		}
		return k.Mask
	case varParam:
		if v.act == act {
			return e.Params[v.j]
		}
	}
	return dataplane.Value{}
}

var one = dataplane.U64(1)

// binding is the variables one table's entries bind for the conditions of
// one cluster: the updated table's, or those of a table the cluster's
// conditions scan (shared by all that scan it, so they read the same
// registers).
type binding struct {
	tb   *table
	vars []boundVar
	// The variables' registers are regs[lo:hi], in vars order, so that
	// what fill writes there is an entry's row, loaded by one copy.
	lo, hi int
}

// fill binds every variable to e's value for it, in env on the term tier
// (non-nil) and in regs otherwise, normalized to its sort as smt.Eval
// normalizes env reads.
func (b *binding) fill(regs []uint64, env smt.Env, act *action, e *dataplane.Entry) {
	for i := range b.vars {
		v := &b.vars[i]
		val := v.value(act, e)
		switch {
		case env != nil:
			env[v.name] = val.Big()
		case v.width == 0:
			regs[v.slot] = 0
			if !val.IsZero() {
				regs[v.slot] = 1
			}
		case v.width <= 64:
			regs[v.slot] = val.Uint64() & smt.LimbMask(v.width, 0)
		default:
			for l := range smt.Limbs(v.width) {
				regs[v.slot+l] = val.Limb(l) & smt.LimbMask(v.width, l)
			}
		}
	}
}

// clear unbinds the variables: each reads zero, hit as false.
func (b *binding) clear(regs []uint64, env smt.Env) {
	if env == nil {
		clear(regs[b.lo:b.hi])
		return
	}
	for i := range b.vars {
		delete(env, b.vars[i].name)
	}
}

// condition is one forbidden term of one assertion, as the cluster of one
// table evaluates it.
type condition struct {
	src  *spec.Assertion
	i    int // the term is src.Forbidden[i]
	term *smt.Term
	// other is the assertion's other table (nil for a single-table one);
	// scan is its binding when the term reads any of its variables, so
	// that the condition is evaluated per shadow entry of that table.
	other *table
	scan  *binding
	// prog is the term lowered over the cluster's registers, nil when it
	// does not fit the register machine.
	prog *smt.Program
	// guards, for a condition that scans or has no prog, are the term's
	// top-level conjuncts that read no scanned variable, each implied by
	// the term and the same under every shadow completion. One that is
	// false under the update's bindings alone proves the condition cannot
	// be violated; all true prove nothing. They cut work, never verdicts.
	guards []*smt.Program
	// filters, for a scanning condition with a prog, are the conjuncts
	// that read scanned variables and none of the updated table's, each
	// the same under every update. A shadow entry under which one is
	// false can never complete the term, so it is no candidate: at is the
	// condition's position in the scanned table's scanners, by which a
	// shim keeps the rows of the entries that pass them all (Shim.cands).
	filters []*smt.Program
	at      int
}

// holds evaluates the term under the current bindings: by the evaluator
// over env on the term tier (env non-nil), by its program over regs
// otherwise.
func (c *condition) holds(regs []uint64, env smt.Env) bool {
	if env != nil {
		return smt.EvalBool(c.term, env)
	}
	return c.prog.Eval(regs)
}

// plan is the compiled cluster of one table. Immutable after Compile;
// shared read-only across shards.
type plan struct {
	// conds are the conditions of every assertion that names the table
	// (the paper's step a), in file order.
	conds []condition
	// own is what an update to the table binds itself.
	own binding
	// hasFast: some condition has a program or guards, so an update is
	// worth a register file.
	hasFast bool
	// scanners are the conditions, of any table's cluster, whose fast
	// tier scans this table's shadow entries: a shim keeps each one's
	// candidate rows (Shim.cands).
	scanners []*condition
}

// planner resolves names while Compile builds the plans.
type planner struct {
	vars   map[*table]map[string]boundVar
	prefix map[int][]dataplane.Value
}

// controlVars lists the variables tb's entries bind, by name. It is the
// one place that knows how control variables are named.
func (pl *planner) controlVars(tb *table) map[string]boundVar {
	if m, ok := pl.vars[tb]; ok {
		return m
	}
	p := tb.ts.Prefix
	m := map[string]boundVar{
		p + ".hit":        {kind: varHit},
		p + ".action_run": {kind: varActionRun},
	}
	for j, k := range tb.ts.Keys {
		m[fmt.Sprintf("%s.key%d", p, j)] = boundVar{kind: varKey, j: j}
		if k.MatchKind != "ternary" && k.MatchKind != "lpm" {
			continue // an exact key's mask is never bound
		}
		mask := boundVar{kind: varMask, j: j, full: dataplane.Ones(k.Width)}
		if k.MatchKind == "lpm" {
			if pl.prefix[k.Width] == nil {
				for n := 0; n <= k.Width; n++ {
					pl.prefix[k.Width] = append(pl.prefix[k.Width], dataplane.PrefixMask(k.Width, n))
				}
			}
			mask.prefix = pl.prefix[k.Width]
		}
		m[fmt.Sprintf("%s.mask%d", p, j)] = mask
	}
	for _, a := range tb.ts.Actions {
		for i, ps := range a.Params {
			m[p+"."+a.Name+"."+ps.Name] = boundVar{kind: varParam, j: i, act: tb.actions[a.Name]}
		}
	}
	pl.vars[tb] = m
	return m
}

// slotKey identifies one register: a variable at one sort.
type slotKey struct {
	name string
	sort smt.Sort
}

// slotRef is a variable of the binding that fills it: owner.vars[i].
type slotRef struct {
	owner *binding
	i     int
}

// compilePlans builds the plan of every table. It never fails:
// conditions that cannot lower simply stay on the term tier.
func (cp *Compiled) compilePlans() {
	pl := &planner{vars: map[*table]map[string]boundVar{}, prefix: map[int][]dataplane.Value{}}
	for _, tb := range cp.byName { // each table once, though a file may list a name twice
		if len(tb.conds) == 0 {
			continue
		}
		tb.own.tb = tb
		slots := map[slotKey]slotRef{}
		bindings := []*binding{&tb.own} // the own binding, then the scanned ones as met
		scans := map[*table]*binding{}
		// Pass one: resolve every variable against the updated table or
		// the condition's other table.
		for ci := range tb.conds {
			c := &tb.conds[ci]
			for _, vt := range c.term.Vars(nil) {
				b := &tb.own
				v, ok := pl.controlVars(tb)[vt.Name()]
				if !ok && c.other != nil {
					if v, ok = pl.controlVars(c.other)[vt.Name()]; ok {
						if scans[c.other] == nil {
							scans[c.other] = &binding{tb: c.other}
							bindings = append(bindings, scans[c.other])
						}
						b = scans[c.other]
						c.scan = b
					}
				}
				k := slotKey{vt.Name(), vt.Sort()}
				if _, done := slots[k]; done || !ok {
					continue // !ok: bound on neither tier
				}
				v.name, v.width = k.name, k.sort.Width
				slots[k] = slotRef{b, len(b.vars)}
				b.vars = append(b.vars, v)
			}
		}
		// The register layout: each binding's variables, limb by limb and
		// back to back, so that a scan loads an entry with one copy.
		nSlots := 0
		for _, b := range bindings {
			b.lo = nSlots
			for i := range b.vars {
				b.vars[i].slot = nSlots
				nSlots += smt.Limbs(b.vars[i].width)
			}
			b.hi = nSlots
		}
		// Pass two: lower. A condition reads the registers of the updated
		// table and of the table it scans; a variable of a table some
		// other condition scans is never bound for this one and reads zero.
		lower := func(term *smt.Term, scan *binding) *smt.Program {
			prog, err := smt.LowerBool(term, nSlots, func(name string, s smt.Sort) (int, error) {
				r, ok := slots[slotKey{name, s}]
				if !ok || r.owner != &tb.own && r.owner != scan {
					return -1, nil
				}
				return r.owner.vars[r.i].slot, nil
			})
			if err != nil {
				return nil
			}
			cp.maxRegs = max(cp.maxRegs, prog.NumRegs())
			return prog
		}
		reads := func(t *smt.Term, b *binding) bool {
			for _, vt := range t.Vars(nil) {
				if slots[slotKey{vt.Name(), vt.Sort()}].owner == b {
					return true
				}
			}
			return false
		}
		for ci := range tb.conds {
			c := &tb.conds[ci]
			c.prog = lower(c.term, c.scan)
			if c.prog == nil || c.scan != nil {
				// Guards read no scanned variable; filters read scanned
				// variables and none of the update's; joins read both and
				// are left to the full program. A conjunct that does not
				// lower is simply no guard or filter.
				for _, conj := range conjuncts(c.term, nil) {
					switch {
					case c.scan == nil || !reads(conj, c.scan):
						if g := lower(conj, c.scan); g != nil {
							c.guards = append(c.guards, g)
						}
					case c.prog != nil && !reads(conj, &tb.own):
						if f := lower(conj, c.scan); f != nil {
							c.filters = append(c.filters, f)
						}
					}
				}
			}
			if c.prog != nil && c.scan != nil {
				c.at = len(c.other.scanners)
				c.other.scanners = append(c.other.scanners, c)
			}
			tb.hasFast = tb.hasFast || c.prog != nil || len(c.guards) > 0
		}
	}
}

// conjuncts flattens nested top-level ANDs into dst.
func conjuncts(t *smt.Term, dst []*smt.Term) []*smt.Term {
	if t.Op() != smt.OpAnd {
		return append(dst, t)
	}
	for _, a := range t.Args() {
		dst = conjuncts(a, dst)
	}
	return dst
}

// guardsRefute reports whether any guard evaluates false.
func guardsRefute(guards []*smt.Program, regs []uint64) bool {
	for _, g := range guards {
		if !g.Eval(regs) {
			return true
		}
	}
	return false
}
