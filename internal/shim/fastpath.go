package shim

import (
	"math/big"
	"strconv"

	"bf4/internal/dataplane"
	"bf4/internal/smt"
	"bf4/internal/spec"
)

// This file is the shim's fast path: at compile time every forbidden
// condition is lowered into a flat uint64 bytecode program
// (internal/smt/lower.go), and validation runs that program over a
// pooled scratch register file instead of substituting big.Ints into
// the term DAG. Conditions come in two fast shapes. A condition whose
// variables the updated table binds runs the program once per update.
// A condition that also mentions the cluster's other (linked) table
// runs the same program once per shadow entry of that table, rebinding
// only that table's slot region between runs — the bytecode twin of
// evalCondition's shadow scan, minus the per-entry env clone and DAG
// walk. Only conditions the register machine cannot express — a
// bitvector wider than 64 — keep the exact slow-path code, so the two
// tiers partition the work per condition, not per table.
//
// Exactness contract: for every update, a fast program must return
// precisely what evalCondition would. The binders below therefore
// mirror bindEntry value for value (same action resolution, same mask
// synthesis, same normalization the term evaluator applies at the env
// boundary), and variables neither tier ever binds lower to the
// constant zero, matching the evaluator's unbound-variable convention.
// The differential harness in diff_test.go and FuzzFastpath hold this
// line.
//
// Plan compilation is two-pass. Slot registers are shared by every
// program of a table's cluster and must all be allocated before any
// program's temporaries, so pass one classifies the variables of every
// condition (fixing the slot layout, including the scanned table's
// region) and pass two lowers the conditions with temporaries starting
// above the final slot count.

type slotKind uint8

const (
	bindHit         slotKind = iota // <prefix>.hit: constant true
	bindActionRun                   // <prefix>.action_run: selected action index
	bindKey                         // <prefix>.keyJ: entry key value
	bindMaskTernary                 // <prefix>.maskJ, ternary key
	bindMaskLpm                     // <prefix>.maskJ, lpm key
)

// slotBind fills one always-bound register from the update. width is the
// variable's declared sort width (0 = bool) — the slot holds the value
// normalized to that sort, exactly as smt.Eval normalizes env reads.
// keyWidth is the key's schema width (masks are built at key width, then
// reduced to the slot sort).
type slotBind struct {
	kind     slotKind
	j        int
	width    int
	keyWidth int
	slot     int
}

// paramBind fills one action-parameter register when its action is the
// one the entry selects; otherwise the slot keeps its zeroed value
// (matching the slow path's unbound-variable-to-zero convention).
type paramBind struct {
	pi    int
	width int
	slot  int
}

// actPlan is the fast-path view of one action: its action_run index and
// the parameter slots any condition mentions.
type actPlan struct {
	index  int
	params []paramBind
}

// scanBinder rebinds one linked table's register region per scanned
// shadow entry. Shared by every condition of a plan that scans that
// table, so their programs read the same slots.
type scanBinder struct {
	ts      *spec.TableSchema
	binds   []slotBind
	actions map[string]*actPlan
	// slots is every register owned by the scanned table, zeroed before
	// each entry bind so a previous entry's values (or a different
	// action's parameters) never leak into the next evaluation.
	slots []int
}

// linkedPlan is a lowered condition that still needs evalCondition's
// shadow resolution (the paper's step c): violated if ANY entry of the
// other table completes the forbidden shape.
type linkedPlan struct {
	prog *smt.Program
	sb   *scanBinder
	// guards are the term's top-level conjuncts that mention no
	// scanned-table variable, each implied by the full term. If any is
	// false under the update's bindings alone, no shadow entry can
	// complete the forbidden shape and the scan is skipped. The scan
	// still runs the full term, so guards only cut work, never verdicts.
	guards []*smt.Program
}

// tablePlan is the compiled fast path for one table's assertion cluster.
// Immutable after compile; shared read-only across shards.
type tablePlan struct {
	ts     *spec.TableSchema
	nSlots int
	// maxRegs sizes the scratch register file for the largest program.
	maxRegs int
	binds   []slotBind
	actions map[string]*actPlan
	// progs parallels cp.byTable[table]: progs[ci][ti] is the lowered
	// program for the ci-th cluster's ti-th forbidden term, or nil when
	// that condition scans shadow state (see linked) or stays slow.
	progs [][]*smt.Program
	// linked parallels progs: linked[ci][ti] is non-nil when the
	// condition lowered but must be re-run per shadow entry of the
	// cluster's other table. progs and linked are never both set.
	linked [][]*linkedPlan
	// slowGuards parallels progs: pre-filters for conditions that stayed
	// on the term-DAG path (e.g. >64-bit vectors). Each guard is an
	// implied conjunct over update-bound variables only; any false guard
	// decides the condition (not violated) without building an env.
	// All-true guards prove nothing and defer to the slow evaluator.
	slowGuards [][][]*smt.Program
	hasFast    bool
	// needsEnv is true when some condition stayed slow. Envs are built
	// lazily at the first slow evaluation; this is diagnostic.
	needsEnv bool
}

// slotKey identifies one register slot. The same variable name may be
// declared at different sorts by different assertions; each (name, sort)
// pair gets its own slot with its own normalization width.
type slotKey struct {
	name string
	sort smt.Sort
}

// planner accumulates slot assignments while compiling one table's plan.
type planner struct {
	tp    *tablePlan
	slots map[slotKey]int
	// owner records which scan binder a slot belongs to (absent/nil =
	// bound by the update itself). A program may only read scan slots of
	// its own cluster's binder: a different cluster's scan never binds
	// for this condition on the slow path, so its variables read zero.
	owner map[int]*scanBinder
	// others caches the scan binder per linked table, so every condition
	// scanning that table shares one slot region.
	others map[string]*scanBinder
}

// compilePlans builds a tablePlan for every clustered table. It never
// fails: conditions that cannot lower simply stay on the slow path.
func (cp *Compiled) compilePlans() {
	cp.plans = map[string]*tablePlan{}
	for table, cas := range cp.byTable {
		ts := cp.file.Table(table)
		if ts == nil {
			continue
		}
		pl := &planner{
			tp:     &tablePlan{ts: ts, actions: map[string]*actPlan{}},
			slots:  map[slotKey]int{},
			owner:  map[int]*scanBinder{},
			others: map[string]*scanBinder{},
		}
		// Last occurrence wins, like bindEntry's scan over ts.Actions.
		for _, a := range ts.Actions {
			pl.tp.actions[a.Name] = &actPlan{index: a.Index}
		}
		// Pass one: classify every condition, fixing the slot layout.
		scans := make([][]*scanBinder, len(cas))
		for ci, ca := range cas {
			scans[ci] = make([]*scanBinder, len(ca.terms))
			for ti, term := range ca.terms {
				scans[ci][ti] = pl.classifyCondition(ca, term)
			}
		}
		// Pass two: lower, with temporaries above the final slot count.
		pl.tp.maxRegs = pl.tp.nSlots
		for ci, ca := range cas {
			progs := make([]*smt.Program, len(ca.terms))
			lps := make([]*linkedPlan, len(ca.terms))
			sgs := make([][]*smt.Program, len(ca.terms))
			for ti, term := range ca.terms {
				sb := scans[ci][ti]
				prog := pl.lowerCondition(term, sb)
				switch {
				case prog == nil:
					pl.tp.needsEnv = true
					sgs[ti] = pl.lowerGuards(term, sb)
					if len(sgs[ti]) > 0 {
						pl.tp.hasFast = true
					}
				case sb != nil:
					lps[ti] = &linkedPlan{prog: prog, sb: sb, guards: pl.lowerGuards(term, sb)}
					pl.tp.hasFast = true
				default:
					progs[ti] = prog
					pl.tp.hasFast = true
				}
			}
			pl.tp.progs = append(pl.tp.progs, progs)
			pl.tp.linked = append(pl.tp.linked, lps)
			pl.tp.slowGuards = append(pl.tp.slowGuards, sgs)
		}
		cp.plans[table] = pl.tp
		if pl.tp.maxRegs > cp.maxRegs {
			cp.maxRegs = pl.tp.maxRegs
		}
	}
}

// classifyCondition allocates register slots for one forbidden term's
// bindable variables and decides its evaluation shape. Variables the
// updated table binds get per-update slots; variables the cluster's
// other table binds get slots in that table's scan region (making the
// condition a per-shadow-entry scan, reported by the returned binder);
// everything else is bound on neither tier and lowers to the constant
// zero, mirroring the evaluator's unbound-variable convention.
func (pl *planner) classifyCondition(ca *compiledAssertion, term *smt.Term) *scanBinder {
	other := pl.otherTable(ca)
	var sb *scanBinder
	for _, vt := range term.Vars(nil) {
		if pl.assignSlot(vt.Name(), vt.Sort()) {
			continue
		}
		if other == nil {
			continue
		}
		cand := pl.scanner(other)
		if pl.assignScanSlot(cand, vt.Name(), vt.Sort()) {
			sb = cand
		}
	}
	return sb
}

// otherTable resolves the cluster table evalCondition would scan shadow
// entries of: the assertion's primary or linked table, whichever is not
// the updated one (nil for single-table assertions).
func (pl *planner) otherTable(ca *compiledAssertion) *spec.TableSchema {
	if ca.primary != pl.tp.ts {
		return ca.primary
	}
	if ca.linked != nil && ca.linked != pl.tp.ts {
		return ca.linked
	}
	return nil
}

// scanner returns the (shared) scan binder for one linked table,
// creating it on first use.
func (pl *planner) scanner(other *spec.TableSchema) *scanBinder {
	if sb, ok := pl.others[other.Name]; ok {
		return sb
	}
	sb := &scanBinder{ts: other, actions: map[string]*actPlan{}}
	for _, a := range other.Actions {
		sb.actions[a.Name] = &actPlan{index: a.Index}
	}
	pl.others[other.Name] = sb
	return sb
}

// assignSlot allocates (once) the register for a variable the update
// itself binds, reporting whether the name is update-bindable at all.
func (pl *planner) assignSlot(name string, s smt.Sort) bool {
	b, okB := alwaysBound(pl.tp.ts, name)
	act, pi, okP := actionParam(pl.tp.ts, name)
	if !okB && !okP {
		return false
	}
	k := slotKey{name: name, sort: s}
	if _, ok := pl.slots[k]; ok {
		return true
	}
	if okB {
		b.width = s.Width
		b.slot = pl.alloc(k)
		pl.tp.binds = append(pl.tp.binds, b)
		return true
	}
	slot := pl.alloc(k)
	ap := pl.tp.actions[act.Name]
	ap.params = append(ap.params, paramBind{pi: pi, width: s.Width, slot: slot})
	return true
}

// assignScanSlot allocates (once) the register for a variable the
// scanned table's entries bind, mirroring bindEntry for that table. It
// reports whether the name is bindable by that table at all (if so, the
// condition must scan, even when the slot was allocated earlier by
// another condition).
func (pl *planner) assignScanSlot(sb *scanBinder, name string, s smt.Sort) bool {
	b, okB := alwaysBound(sb.ts, name)
	act, pi, okP := actionParam(sb.ts, name)
	if !okB && !okP {
		return false
	}
	k := slotKey{name: name, sort: s}
	if _, ok := pl.slots[k]; ok {
		return true
	}
	var slot int
	if okB {
		b.width = s.Width
		b.slot = pl.alloc(k)
		sb.binds = append(sb.binds, b)
		slot = b.slot
	} else {
		slot = pl.alloc(k)
		ap := sb.actions[act.Name]
		ap.params = append(ap.params, paramBind{pi: pi, width: s.Width, slot: slot})
	}
	pl.owner[slot] = sb
	sb.slots = append(sb.slots, slot)
	return true
}

func (pl *planner) alloc(k slotKey) int {
	r := pl.tp.nSlots
	pl.tp.nSlots++
	pl.slots[k] = r
	return r
}

// lowerGuards extracts a condition's pre-filter: the top-level
// conjuncts of the term that mention no scanned-table variable, each
// lowered to its own program. Every conjunct is implied by the full
// term and reads only update-bound (or never-bound) variables, whose
// values are the same under every shadow completion — so a false guard
// under the update's bindings alone proves the condition cannot be
// violated, skipping the shadow scan (linked conditions) or the env
// build and term-DAG walk (slow conditions). Conjuncts that fail to
// lower are simply dropped — guards are an optimization, never an
// authority.
func (pl *planner) lowerGuards(term *smt.Term, sb *scanBinder) []*smt.Program {
	var guards []*smt.Program
	for _, conj := range conjuncts(term, nil) {
		if sb != nil && mentionsTable(conj, sb.ts) {
			continue
		}
		if g := pl.lowerCondition(conj, sb); g != nil {
			guards = append(guards, g)
		}
	}
	return guards
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

// mentionsTable reports whether t reads any variable the given table's
// entries bind (the set a shadow scan of that table rebinds).
func mentionsTable(t *smt.Term, ts *spec.TableSchema) bool {
	for _, vt := range t.Vars(nil) {
		if _, ok := alwaysBound(ts, vt.Name()); ok {
			return true
		}
		if _, _, ok := actionParam(ts, vt.Name()); ok {
			return true
		}
	}
	return false
}

// lowerCondition lowers one term for a condition whose scan binder is
// sb (nil when the condition scans nothing), returning nil (slow path)
// if it exceeds the register machine's width. The slot layout is
// frozen: variables resolve through the map — update slots always,
// scan slots only when owned by this condition's own binder (another
// cluster's scan never binds for this condition, so its variables read
// zero) — or are never bound and lower to zero.
func (pl *planner) lowerCondition(term *smt.Term, sb *scanBinder) *smt.Program {
	prog, err := smt.LowerBool(term, pl.tp.nSlots, func(name string, s smt.Sort) (int, error) {
		if r, ok := pl.slots[slotKey{name: name, sort: s}]; ok {
			if o := pl.owner[r]; o == nil || o == sb {
				return r, nil
			}
		}
		return -1, nil
	})
	if err != nil {
		return nil
	}
	if prog.NumRegs() > pl.tp.maxRegs {
		pl.tp.maxRegs = prog.NumRegs()
	}
	return prog
}

// alwaysBound reports whether bindEntry binds name for every entry of
// ts, and with which binding. (Arity-checked entries bind every key, so
// keys and ternary/lpm masks are unconditionally bound.)
func alwaysBound(ts *spec.TableSchema, name string) (slotBind, bool) {
	rest, ok := cutPrefix(name, ts.Prefix+".")
	if !ok {
		return slotBind{}, false
	}
	switch rest {
	case "hit":
		return slotBind{kind: bindHit}, true
	case "action_run":
		return slotBind{kind: bindActionRun}, true
	}
	for j, k := range ts.Keys {
		if rest == "key"+strconv.Itoa(j) {
			return slotBind{kind: bindKey, j: j, keyWidth: k.Width}, true
		}
		if rest == "mask"+strconv.Itoa(j) {
			switch k.MatchKind {
			case "ternary":
				return slotBind{kind: bindMaskTernary, j: j, keyWidth: k.Width}, true
			case "lpm":
				return slotBind{kind: bindMaskLpm, j: j, keyWidth: k.Width}, true
			}
			return slotBind{}, false // exact-match mask: never bound
		}
	}
	return slotBind{}, false
}

// actionParam resolves name as <prefix>.<action>.<param> of ts, using
// the same last-occurrence action resolution as bindEntry.
func actionParam(ts *spec.TableSchema, name string) (*spec.ActionSchema, int, bool) {
	rest, ok := cutPrefix(name, ts.Prefix+".")
	if !ok {
		return nil, 0, false
	}
	var match *spec.ActionSchema
	pi := 0
	for _, a := range ts.Actions {
		sub, ok := cutPrefix(rest, a.Name+".")
		if !ok {
			continue
		}
		for i, p := range a.Params {
			if p.Name == sub {
				match, pi = a, i
			}
		}
	}
	return match, pi, match != nil
}

func cutPrefix(s, prefix string) (string, bool) {
	if len(s) <= len(prefix) || s[:len(prefix)] != prefix {
		return "", false
	}
	return s[len(prefix):], true
}

// bind fills the slot region of regs from the update's entry: the
// fast-path equivalent of bindEntry + smt.Eval's env normalization.
// Allocation-free for widths ≤ 64.
func (tp *tablePlan) bind(regs []uint64, e *dataplane.Entry) {
	for i := 0; i < tp.nSlots; i++ {
		regs[i] = 0
	}
	bindSlots(regs, tp.binds, tp.actions, e)
}

// bind rebinds the scanned table's registers for one shadow entry.
func (sb *scanBinder) bind(regs []uint64, e *dataplane.Entry) {
	sb.clear(regs)
	bindSlots(regs, sb.binds, sb.actions, e)
}

// clear zeroes the scanned table's registers: with no entry bound,
// every variable of that table — including hit — reads as zero/false,
// exactly the slow path's unbound-variable convention.
func (sb *scanBinder) clear(regs []uint64) {
	for _, s := range sb.slots {
		regs[s] = 0
	}
}

// bindSlots fills one entry's slot bindings over a pre-zeroed region,
// shared by the per-update binder and shadow scans. Keys past the
// entry's arity stay unbound (zero), like bindEntry's early break.
func bindSlots(regs []uint64, binds []slotBind, actions map[string]*actPlan, e *dataplane.Entry) {
	ap := actions[e.Action]
	for _, b := range binds {
		var v uint64
		switch b.kind {
		case bindHit:
			v = normU64(1, b.width)
		case bindActionRun:
			idx := 0
			if ap != nil {
				idx = ap.index
			}
			v = normU64(uint64(int64(idx)), b.width)
		case bindKey:
			if b.j >= len(e.Keys) {
				continue
			}
			v = normBig(e.Keys[b.j].Value, b.width)
		case bindMaskTernary:
			if b.j >= len(e.Keys) {
				continue
			}
			m := e.Keys[b.j].Mask
			if m == nil {
				v = onesNorm(b.keyWidth, b.width)
			} else {
				v = normBig(m, b.width)
			}
		case bindMaskLpm:
			if b.j >= len(e.Keys) {
				continue
			}
			plen := e.Keys[b.j].PrefixLen
			if plen < 0 {
				plen = b.keyWidth
			}
			v = prefixMaskNorm(b.keyWidth, plen, b.width)
		}
		regs[b.slot] = v
	}
	if ap != nil {
		for _, pb := range ap.params {
			var v uint64
			if pb.pi < len(e.Params) {
				v = normBig(e.Params[pb.pi], pb.width)
			}
			regs[pb.slot] = v
		}
	}
}

// guardsRefute reports whether any guard — an implied conjunct over
// update-bound variables — evaluates false, proving the full condition
// cannot be violated by any shadow completion.
func guardsRefute(guards []*smt.Program, regs []uint64) bool {
	for _, g := range guards {
		if !g.Eval(regs) {
			return true
		}
	}
	return false
}

// evalLinkedFast is the bytecode tier of evalCondition's shadow
// resolution (the paper's step c): the condition is violated if ANY
// entry of the scanned table completes the forbidden shape. Instead of
// cloning an env map and re-walking the term DAG per entry, it rebinds
// the scanned table's register slots and re-runs the program.
func (s *Shim) evalLinkedFast(lp *linkedPlan, regs []uint64) bool {
	if guardsRefute(lp.guards, regs) {
		return false
	}
	entries := s.shadow[lp.sb.ts.Name]
	if len(entries) == 0 {
		// No candidate entry can complete the forbidden shape; the
		// scanned table's hit variable reads false.
		lp.sb.clear(regs)
		return lp.prog.Eval(regs)
	}
	for _, e := range entries {
		lp.sb.bind(regs, e)
		if lp.prog.Eval(regs) {
			return true
		}
	}
	return false
}

// normU64 reduces an in-register value to a sort: width 0 (bool) is
// truthiness, width w is mod 2^w. Mirrors smt.Eval's env-read
// normalization for values that already fit a word.
func normU64(v uint64, width int) uint64 {
	if width == 0 {
		if v != 0 {
			return 1
		}
		return 0
	}
	if width < 64 {
		return v & ((uint64(1) << uint(width)) - 1)
	}
	return v
}

// normBig reduces a big value to a sort the way smt.Eval would at the
// env boundary. Slot widths never exceed 64, so only the value's low 64
// bits matter: |v| mod 2^64 read straight from the magnitude words,
// negated (wrapping) for negative v — the same [0, 2^w) residue the
// evaluator's Euclidean big.Int.Mod produces, without allocating.
func normBig(v *big.Int, width int) uint64 {
	if v.Sign() >= 0 && v.BitLen() <= 64 {
		return normU64(v.Uint64(), width)
	}
	lo := low64(v)
	if v.Sign() < 0 {
		lo = -lo
	}
	return normU64(lo, width)
}

// wordBits is the size of a big.Word (32 or 64 depending on platform).
const wordBits = 32 << (^big.Word(0) >> 63)

// low64 is |v| mod 2^64, assembled from the magnitude's low words.
func low64(v *big.Int) uint64 {
	var lo uint64
	for i, w := range v.Bits() {
		shift := uint(i * wordBits)
		if shift >= 64 {
			break
		}
		lo |= uint64(w) << shift
	}
	return lo
}

// onesNorm is smt.Mask(keyWidth) reduced to the slot width.
func onesNorm(keyWidth, width int) uint64 {
	if keyWidth >= 64 {
		return normU64(^uint64(0), width)
	}
	return normU64((uint64(1)<<uint(keyWidth))-1, width)
}

// prefixMaskNorm is dataplane.PrefixMask(keyWidth, plen) reduced to the slot
// width: plen one bits above keyWidth-plen zero bits.
func prefixMaskNorm(keyWidth, plen, width int) uint64 {
	if plen >= keyWidth {
		return onesNorm(keyWidth, width)
	}
	zeros := keyWidth - plen
	if zeros >= 64 {
		return 0
	}
	var m uint64
	if plen >= 64-zeros {
		// The one-run extends past bit 63; only its low bits survive in
		// a 64-bit word, which is all a ≤64-bit slot can see.
		m = ^uint64(0) << uint(zeros)
	} else {
		m = ((uint64(1) << uint(plen)) - 1) << uint(zeros)
	}
	return normU64(m, width)
}
