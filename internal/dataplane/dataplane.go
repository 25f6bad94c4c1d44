// Package dataplane is a concrete interpreter for bf4's expanded IR — the
// reproduction's software switch. It runs in two modes:
//
//   - Snapshot mode: execute a packet against a concrete snapshot (table
//     entries + default actions), performing real exact/ternary/lpm
//     matching at every table instance. This is the execution substrate
//     for the examples, the shim's end-to-end tests and the Vera-style
//     baseline (which symbolically or concretely explores snapshots).
//
//   - Replay mode: execute under a solver model (an smt.Env from a
//     reachability check), with havoc nodes reading the model's values for
//     their SSA versions. Replay of a bug's model must terminate at that
//     bug node — the repository's strongest cross-validation of the
//     verifier against operational semantics.
package dataplane

import (
	"fmt"
	"math/big"
	"slices"
	"strconv"

	"bf4/internal/ir"
	"bf4/internal/smt"
	"bf4/internal/ssa"
)

// Snapshot is a concrete rule state: the paper's "P4 program together
// with all its active table entries".
type Snapshot struct {
	Entries  map[string][]*Entry
	Defaults map[string]*DefaultAction
}

// NewSnapshot returns an empty snapshot.
func NewSnapshot() *Snapshot {
	return &Snapshot{
		Entries:  map[string][]*Entry{},
		Defaults: map[string]*DefaultAction{},
	}
}

// Insert appends an entry to a table.
func (s *Snapshot) Insert(table string, e *Entry) {
	s.Entries[table] = append(s.Entries[table], e)
}

// Packet supplies concrete values for havocked inputs: extracted header
// fields (by field variable name), register reads, hash results. Missing
// names default to zero.
type Packet map[string]*big.Int

// SetField sets a field value, e.g. pkt.SetField("hdr.ipv4.ttl", 64).
func (p Packet) SetField(name string, v int64) { p[name] = big.NewInt(v) }

// Check refuses a packet naming a field prog has no variable for: the
// interpreter would never read it, so a misspelled field silently runs
// the packet with that field zero. The error names the first such field
// in name order.
func (p Packet) Check(prog *ir.Program) error {
	var unknown []string
	for name := range p {
		if _, ok := prog.Vars[name]; !ok {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) == 0 {
		return nil
	}
	slices.Sort(unknown)
	return fmt.Errorf("dataplane: packet field %q is not a variable of the program", unknown[0])
}

// Trace is the outcome of one execution.
type Trace struct {
	Terminal *ir.Node
	Nodes    []*ir.Node
	// State is the final variable valuation.
	State smt.Env
	// Matched records, per visited table instance, the matched entry
	// index (-1 for miss).
	Matched map[*ir.TableInstance]int
}

// Bug reports whether the trace ended in a bug.
func (t *Trace) Bug() bool { return t.Terminal != nil && t.Terminal.Kind == ir.BugTerm }

// EgressSpec returns the final egress_spec value (or -1).
func (t *Trace) EgressSpec() int64 {
	if v, ok := t.State["smeta.egress_spec"]; ok {
		return v.Int64()
	}
	return -1
}

// Interp executes the expanded IR.
type Interp struct {
	P *ir.Program
	// Snapshot enables snapshot mode (real matching at assert points).
	Snapshot *Snapshot
	// Model enables replay mode; Pass must be set so havoc nodes can look
	// up their SSA version's value in the model.
	Model smt.Env
	Pass  *ssa.Result
	// Inputs preloads version-0 variables (ingress_port etc.) in
	// snapshot mode.
	Inputs Packet
}

// Run executes one packet. Execution follows successor edges through the
// acyclic IR, so it ends at a terminal within len(P.Nodes) steps.
func (ip *Interp) Run() (*Trace, error) {
	state := smt.Env{}
	// Seed version-0 values.
	if ip.Model != nil {
		for _, v := range ip.P.VarList() {
			if mv, ok := ip.Model[v.Name]; ok {
				state[v.Name] = mv
			}
		}
	}
	for name, v := range ip.Inputs {
		state[name] = v
	}
	tr := &Trace{Matched: map[*ir.TableInstance]int{}}
	n := ip.P.Start
	for {
		tr.Nodes = append(tr.Nodes, n)
		switch n.Kind {
		case ir.BugTerm, ir.AcceptTerm, ir.RejectTerm, ir.UnreachTerm:
			tr.Terminal = n
			tr.State = state
			return tr, nil
		case ir.Assign:
			state[n.Var.Name] = smt.Eval(n.Expr, state)
		case ir.Havoc:
			state[n.Var.Name] = ip.havocValue(n)
		case ir.Branch:
			if len(n.Succs) != 2 {
				return nil, fmt.Errorf("dataplane: malformed branch n%d", n.ID)
			}
			if smt.EvalBool(n.Expr, state) {
				n = n.Succs[0]
			} else {
				n = n.Succs[1]
			}
			continue
		case ir.AssertPoint:
			if ip.Snapshot != nil {
				if err := ip.applyTable(n.Instance, state, tr); err != nil {
					return nil, err
				}
			}
		}
		if len(n.Succs) == 0 {
			tr.Terminal = n
			tr.State = state
			return tr, nil
		}
		n = n.Succs[0]
	}
}

var bigZero = new(big.Int)

// Big returns v as a big.Int, for the interpreter's arithmetic.
func (v Value) Big() *big.Int {
	if v.hi == nil {
		return new(big.Int).SetUint64(v.lo)
	}
	return new(big.Int).SetBytes(v.AppendBytes(nil))
}

// String returns v in decimal.
func (v Value) String() string {
	if v.hi == nil {
		return strconv.FormatUint(v.lo, 10)
	}
	return v.Big().String()
}

// FromBig returns the value of x, which must be present and not negative.
func FromBig(x *big.Int) (Value, error) {
	switch {
	case x == nil:
		return Value{}, fmt.Errorf("integer is missing")
	case x.Sign() < 0:
		return Value{}, fmt.Errorf("integer %s is negative", x)
	case x.IsUint64():
		return U64(x.Uint64()), nil
	}
	return FromBytes(x.Bytes()), nil
}

func (ip *Interp) havocValue(n *ir.Node) *big.Int {
	// Replay mode: the model assigns the SSA version this havoc created.
	if ip.Model != nil && ip.Pass != nil {
		if t, ok := ip.Pass.HavocTerm[n]; ok {
			if v, ok := ip.Model[t.Name()]; ok {
				return v
			}
		}
	}
	// Snapshot mode: packet content by destination variable name.
	if ip.Inputs != nil {
		if v, ok := ip.Inputs[n.Var.Name]; ok {
			return v
		}
	}
	return bigZero
}

// applyTable performs concrete matching and writes the chosen entry into
// the instance's control variables, so the expansion's branches replay
// the decision consistently. An entry, or a runtime default, whose action
// the table does not list has no branch to replay: that snapshot is not
// one a switch can hold (the shim refuses the update), and it is an error.
func (ip *Interp) applyTable(inst *ir.TableInstance, state smt.Env, tr *Trace) error {
	t := inst.Table
	keyVals := make([]Value, len(inst.KeyTerms))
	for j, kt := range inst.KeyTerms {
		if kt != nil {
			keyVals[j], _ = FromBig(smt.Eval(kt, state)) // never negative
		}
	}
	entries := ip.Snapshot.Entries[t.Name]
	matchIdx := -1
	bestScore := -1
	for i, e := range entries {
		score, ok := matchEntry(t, e, keyVals)
		if !ok {
			continue
		}
		// lpm: longest prefix wins; ternary: priority wins; first match
		// breaks ties.
		if score > bestScore {
			bestScore = score
			matchIdx = i
		}
	}
	tr.Matched[inst] = matchIdx
	var e *Entry
	if matchIdx >= 0 {
		e = entries[matchIdx]
	} else if d := ip.Snapshot.Defaults[t.Name]; d != nil && d.Action != t.Default.Name {
		// The controller made another of the table's actions its default.
		// The expansion has that body on the hit side only, so it runs
		// there, as an entry matching this packet on every key (exact
		// keys take the packet's values, masks are empty). What that
		// cannot reproduce is `hit` reading false afterwards.
		e = &Entry{Action: d.Action, Params: d.Params}
		for j, k := range t.Keys {
			km := KeyMatch{Value: keyVals[j], PrefixLen: -1}
			switch k.MatchKind {
			case "ternary":
				km.MaskKind = MaskBits
			case "lpm":
				km.PrefixLen = 0
			}
			e.Keys = append(e.Keys, km)
		}
	}
	if e != nil {
		idx, ok := inst.ActIndex[e.Action]
		if !ok {
			return fmt.Errorf("dataplane: table %s: the snapshot runs action %q, which the table does not list", t.Name, e.Action)
		}
		state.SetBool(inst.HitVar.Name, true)
		state.SetUint64(inst.ActVar.Name, uint64(idx))
		for j := range inst.KeyVars {
			if j < len(e.Keys) {
				state[inst.KeyVars[j].Name] = e.Keys[j].Value.Big()
				if inst.MaskVars[j] != nil {
					state[inst.MaskVars[j].Name] = EffectiveMaskFor(t.Keys[j], e.Keys[j]).Big()
				}
			}
		}
		for pi, pv := range inst.ParamVars[e.Action] {
			if pi < len(e.Params) {
				state[pv.Name] = e.Params[pi].Big()
			} else {
				state[pv.Name] = bigZero
			}
		}
	} else {
		state.SetBool(inst.HitVar.Name, false)
		if d := ip.Snapshot.Defaults[t.Name]; d != nil {
			// The declared default with other parameter values.
			for pi, pv := range inst.DefaultParamVars {
				if pi < len(d.Params) {
					state[pv.Name] = d.Params[pi].Big()
				}
			}
		} else {
			for _, pv := range inst.DefaultParamVars {
				state[pv.Name] = bigZero
			}
		}
	}
	return nil
}

// Rank is an entry's score in winner selection — lpm prefix length
// dominates, then priority; among equal scores the first entry wins —
// and whether the entry has a match for every key of t (one that does
// not matches no packet).
func Rank(t *ir.Table, e *Entry) (score int, ok bool) {
	if len(e.Keys) < len(t.Keys) {
		return 0, false
	}
	score = e.Priority
	for j, k := range t.Keys {
		if k.MatchKind == "lpm" {
			plen := e.Keys[j].PrefixLen
			if plen < 0 {
				plen = k.Width
			}
			score += plen * 1000 // prefix length dominates priority
		}
	}
	return score, true
}

// matchEntry reports whether the key values match the entry, returning
// its Rank.
func matchEntry(t *ir.Table, e *Entry, keyVals []Value) (score int, ok bool) {
	if score, ok = Rank(t, e); !ok {
		return 0, false
	}
	for j, k := range t.Keys {
		km, kv := &e.Keys[j], keyVals[j]
		switch {
		case k.MatchKind == "exact", k.MatchKind == "ternary" && km.MaskKind == FullMask:
			ok = kv.Equal(km.Value)
		case k.MatchKind == "ternary" || k.MatchKind == "lpm":
			ok = maskedEqual(kv, km.Value, EffectiveMaskFor(k, *km))
		}
		if !ok {
			return 0, false
		}
	}
	return score, true
}

// maskedEqual reports whether a and b agree on every bit m sets.
func maskedEqual(a, b, m Value) bool {
	for i := range max(a.Limbs(), b.Limbs()) {
		if (a.Limb(i)^b.Limb(i))&m.Limb(i) != 0 {
			return false
		}
	}
	return true
}

// EffectiveMaskFor converts an entry's key match into the mask value the
// expansion's mask variable expects (ternary mask, lpm prefix mask, or
// all-ones for exact).
func EffectiveMaskFor(k *ir.KeyInfo, km KeyMatch) Value {
	switch k.MatchKind {
	case "ternary":
		if km.MaskKind == MaskBits {
			return km.Mask
		}
	case "lpm":
		if km.PrefixLen >= 0 {
			return PrefixMask(k.Width, km.PrefixLen)
		}
	}
	return Ones(k.Width)
}
