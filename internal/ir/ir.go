// Package ir defines bf4's mid-level intermediate representation: an
// acyclic control-flow graph over simple instructions whose expressions
// are hash-consed SMT terms (internal/smt). The builder (build.go) lowers
// a type-checked P4 program into this form, performing the three
// transformations of the paper's Figure 3 front half in one pass:
//
//   - parser loop unrolling (bounded by header stack sizes),
//   - table-call expansion into abstract flow entries — per-instance
//     havoc'd control variables for hit, action_run, keys, masks and
//     action parameters, with the match relation asserted on the hit path
//     (paper Figure 4),
//   - bug instrumentation: invalid header reads/writes, key reads of
//     invalid headers (mask-gated for ternary/lpm), header-copy
//     overwrites with dontCare marking, register/stack bounds, and the
//     egress_spec-not-set shadow check.
//
// The builder lowers only what the type checker accepted. A fix is an
// edit of the typed program (fixes.Apply: keys appended to tables, a drop
// at the top of ingress), so the fixed program's IR comes from the same
// Build over the edited AST; expansion, running at build time, picks the
// added keys up like any other.
package ir

import (
	"fmt"

	"bf4/internal/p4/token"
	"bf4/internal/smt"
)

// BugKind classifies the bug classes bf4 instruments for.
type BugKind int

// Bug classes.
const (
	BugNone BugKind = iota
	// BugInvalidHeaderRead is a read of a field of an invalid header.
	BugInvalidHeaderRead
	// BugInvalidHeaderWrite is a write to a field of an invalid header.
	BugInvalidHeaderWrite
	// BugInvalidKeyRead is a table key evaluation reading an invalid
	// header (for ternary/lpm keys, gated on a nonzero mask).
	BugInvalidKeyRead
	// BugHeaderOverwrite is a header copy destroying a live destination
	// header while the source is invalid (the paper's encap case).
	BugHeaderOverwrite
	// BugRegisterOOB is a register access with an out-of-bounds index.
	BugRegisterOOB
	// BugStackOverflow is pushing/extracting past a header stack's
	// capacity.
	BugStackOverflow
	// BugStackUnderflow is popping/reading from an empty header stack.
	BugStackUnderflow
	// BugEgressSpecNotSet fires when ingress ends without any assignment
	// to standard_metadata.egress_spec.
	BugEgressSpecNotSet
	// BugInfoLeak fires when a value derived from a sensitive source
	// (@sensitive annotation or the built-in default policy) reaches an
	// egress-visible sink: an emitted header field, egress-visible
	// standard metadata, a table key, or a clone/digest payload. Opt-in
	// via Options.CheckInfoFlow; see taint.go.
	BugInfoLeak
	// BugAssertFail fires when a user-written @assert property (the
	// property DSL, internal/prop) is violated. The property compiler
	// splices these through Options.Instrument using the same guarded
	// shape as built-in checks, so dataflow discharge, wp, Infer and
	// Fixes treat user properties like any other bug class.
	BugAssertFail
)

var bugNames = map[BugKind]string{
	BugNone:              "none",
	BugInvalidHeaderRead: "invalid-header-read", BugInvalidHeaderWrite: "invalid-header-write",
	BugInvalidKeyRead: "invalid-key-read", BugHeaderOverwrite: "header-overwrite",
	BugRegisterOOB: "register-oob", BugStackOverflow: "stack-overflow",
	BugStackUnderflow: "stack-underflow", BugEgressSpecNotSet: "egress-spec-not-set",
	BugInfoLeak: "info-leak", BugAssertFail: "assert-fail",
}

func (k BugKind) String() string { return bugNames[k] }

// NodeKind discriminates CFG node types.
type NodeKind int

// Node kinds.
const (
	// Nop does nothing; used as a join/label point.
	Nop NodeKind = iota
	// Assign sets Var to Expr.
	Assign
	// Havoc gives Var a fresh unconstrained value.
	Havoc
	// Branch transfers control to Succs[0] if Expr holds, else Succs[1].
	Branch
	// AssertPoint marks entry to a table apply instance (the paper's
	// assert points where controller predicates attach).
	AssertPoint
	// DontCare marks a branch the programmer is presumed indifferent to
	// (paper §4.2, "increasing bug coverage").
	DontCare
	// BugTerm is a bad terminal node.
	BugTerm
	// AcceptTerm is a good terminal (packet forwarded or dropped cleanly).
	AcceptTerm
	// RejectTerm is a good terminal (parser reject; packet dropped).
	RejectTerm
	// UnreachTerm marks infeasible paths (failed assumes). Neither good
	// nor bad.
	UnreachTerm
)

var kindNames = map[NodeKind]string{
	Nop: "nop", Assign: "assign", Havoc: "havoc", Branch: "branch",
	AssertPoint: "assert-point", DontCare: "dontcare", BugTerm: "bug",
	AcceptTerm: "accept", RejectTerm: "reject", UnreachTerm: "unreachable",
}

func (k NodeKind) String() string { return kindNames[k] }

// Var is a flat scalar program variable (a flattened header field,
// metadata field, validity bit, local, or table-entry control variable).
type Var struct {
	Name string
	Sort smt.Sort
	Term *smt.Term // version-0 term for this variable

	// IsControl marks table-entry control variables (keys, masks, action
	// selector, action parameters) — the Γ set of the paper's appendix.
	IsControl bool
}

func (v *Var) String() string { return v.Name }

// Node is one CFG node.
type Node struct {
	ID    int
	Kind  NodeKind
	Var   *Var      // Assign/Havoc destination
	Expr  *smt.Term // Assign RHS or Branch condition
	Succs []*Node
	Preds []*Node

	Bug     BugKind
	Comment string
	Pos     token.Pos

	// Instance links AssertPoint nodes (and bug nodes discovered to be
	// dominated by one) to their table instance.
	Instance *TableInstance

	// Leak carries sink metadata for BugInfoLeak terminals (nil for
	// every other node).
	Leak *LeakInfo

	// Prop carries origin metadata for BugAssertFail terminals and
	// assume branches spliced by the property compiler (nil for every
	// other node).
	Prop *PropInfo
}

// PropInfo links an instrumented node back to the user property it
// implements, so diagnostics can carry the property's own origin
// (source comment or .props spec file) rather than an IR position.
type PropInfo struct {
	// Kind is "assert" or "assume".
	Kind string
	// Origin is the property's declaration site, "file:line:col".
	Origin string
	// Text is the original predicate text as written by the user.
	Text string
	// FromSource marks properties extracted from P4 source comments
	// (their Origin line/col is valid within the analyzed file, so lint
	// diagnostics may anchor to it).
	FromSource bool
	// Line/Col are the declaration position within Origin's file.
	Line, Col int
}

// LeakInfo describes one instrumented information-flow sink check.
type LeakInfo struct {
	// Dest names the destination (field path, table key, extern call).
	Dest string
	// Taint is the shadow taint term of the value written to the sink;
	// the guard branch asserts it nonzero. The dataflow pass evaluates
	// this same term under its abstract label environment, so the static
	// alarm set and the solver's shadow encoding agree by construction.
	Taint *smt.Term
}

// SensitiveSource records why a variable is a taint source.
type SensitiveSource struct {
	// Origin is "annot" for @sensitive annotations, "policy" for the
	// built-in default policy (well-known fields like ipv4.srcAddr).
	Origin string
	Pos    token.Pos
}

func (n *Node) String() string {
	switch n.Kind {
	case Assign:
		return fmt.Sprintf("n%d: %s = %s", n.ID, n.Var, n.Expr)
	case Havoc:
		return fmt.Sprintf("n%d: havoc %s", n.ID, n.Var)
	case Branch:
		return fmt.Sprintf("n%d: branch %s", n.ID, n.Expr)
	case BugTerm:
		return fmt.Sprintf("n%d: bug[%s] %s", n.ID, n.Bug, n.Comment)
	case AssertPoint:
		return fmt.Sprintf("n%d: assert-point %s", n.ID, n.Instance.Name())
	default:
		s := fmt.Sprintf("n%d: %s", n.ID, n.Kind)
		if n.Comment != "" {
			s += " // " + n.Comment
		}
		return s
	}
}

// Header describes one flattened header instance.
type Header struct {
	Path   string // e.g. "hdr.ipv4" or "hdr.vlan[0]"
	Valid  *Var   // boolean validity bit
	Fields []*Var // in declaration order
	Decl   string // header type name
}

// Stack describes a header stack instance.
type Stack struct {
	Path  string
	Size  int
	Next  *Var     // bit<32> next-index counter
	Elems []string // header paths of the elements
}

// Register describes a register extern instance.
type Register struct {
	Name      string
	Size      int
	ElemWidth int
}

// KeyInfo describes one key of a table (static metadata used by
// expansion, the shim and the fixes pass).
type KeyInfo struct {
	Path      string // source-level path, e.g. "hdr.ipv4.srcAddr" or "...isValid()"
	MatchKind string // exact | ternary | lpm
	Width     int
	// Synthesized marks keys added by the Fixes algorithm
	// (ast.TableKey.Synthesized).
	Synthesized bool
}

// ActionInfo describes one action bound to a table.
type ActionInfo struct {
	Name   string
	Params []ParamInfo
}

// ParamInfo is an action parameter (name and width).
type ParamInfo struct {
	Name  string
	Width int
}

// Table is static table metadata shared by all instances.
type Table struct {
	Name    string
	Keys    []*KeyInfo
	Actions []*ActionInfo
	Default *ActionInfo // resolved default action (NoAction if unset)
	Size    int
}

// TableInstance is one expansion of a table apply call. Its control
// variables are the atoms Infer reasons about.
type TableInstance struct {
	Table *Table
	Seq   int // occurrence index of this apply
	Apply *Node
	// Join is the node where control re-converges after the expansion;
	// the Fast-Infer symbolic execution explores Apply..Join.
	Join *Node
	// KeyTerms are the key expressions lowered at the apply point
	// (version-0 terms); the concrete interpreter evaluates them to match
	// entries.
	KeyTerms []*smt.Term
	HitVar   *Var
	ActVar   *Var   // action_run selector (width 8)
	KeyVars  []*Var // one per key
	MaskVars []*Var // nil for exact keys
	// ParamVars[action name][param index]
	ParamVars map[string][]*Var
	// DefaultParamVars mirror ParamVars for the default action's params.
	DefaultParamVars []*Var
	// ActIndex maps action name to its action_run value. The default
	// action keeps its own index; on miss ActVar is assigned it.
	ActIndex map[string]int
	// ActionRange maps action name to the [first,last] node IDs of its
	// inlined body within this expansion (hit dispatch; the default
	// action's range covers the miss path). Used to attribute bug nodes
	// to actions.
	ActionRange map[string][2]int
}

// ActionOfNode returns the action whose inlined body contains the node,
// or "".
func (ti *TableInstance) ActionOfNode(n *Node) string {
	for name, r := range ti.ActionRange {
		if n.ID >= r[0] && n.ID <= r[1] {
			return name
		}
	}
	return ""
}

// Name returns the instance's unique name, e.g. "ipv4_lpm$0".
func (ti *TableInstance) Name() string {
	return fmt.Sprintf("%s$%d", ti.Table.Name, ti.Seq)
}

// Prefix returns the control-variable name prefix for this instance.
func (ti *TableInstance) Prefix() string { return "pcn_" + ti.Name() }

// Program is the lowered IR.
type Program struct {
	Name  string
	F     *smt.Factory
	Start *Node
	Nodes []*Node

	Vars      map[string]*Var
	varOrder  []*Var
	Headers   map[string]*Header
	Stacks    map[string]*Stack
	Registers map[string]*Register
	Tables    map[string]*Table
	Instances []*TableInstance
	Bugs      []*Node

	// EgressSpecSet is the shadow variable tracking assignment of
	// standard_metadata.egress_spec (nil when the check is disabled).
	EgressSpecSet *Var

	// Sensitive maps variable names marked as taint sources to their
	// provenance (only populated under Options.CheckInfoFlow).
	Sensitive map[string]*SensitiveSource

	// IngressEntry/IngressEnd are the nop anchors bracketing the ingress
	// control; the property compiler (internal/prop) splices @assume
	// checks after IngressEntry and end-of-control @assert checks after
	// IngressEnd. Set by the builder; nil in hand-built programs.
	IngressEntry *Node
	IngressEnd   *Node

	nextID int
}

// NewProgram returns an empty program with a fresh term factory.
func NewProgram(name string) *Program {
	return &Program{
		Name:      name,
		F:         smt.NewFactory(),
		Vars:      make(map[string]*Var),
		Headers:   make(map[string]*Header),
		Stacks:    make(map[string]*Stack),
		Registers: make(map[string]*Register),
		Tables:    make(map[string]*Table),
		Sensitive: make(map[string]*SensitiveSource),
	}
}

// VarList returns all variables in creation order.
func (p *Program) VarList() []*Var { return p.varOrder }

// NewVar interns a variable; creating the same name twice with a
// different sort panics (a builder bug).
func (p *Program) NewVar(name string, sort smt.Sort) *Var {
	if v, ok := p.Vars[name]; ok {
		if v.Sort != sort {
			panic(fmt.Sprintf("ir: variable %s redeclared with sort %v (was %v)", name, sort, v.Sort))
		}
		return v
	}
	v := &Var{Name: name, Sort: sort, Term: p.F.Var(name, sort)}
	p.Vars[name] = v
	p.varOrder = append(p.varOrder, v)
	return v
}

// NewNode creates a node of the given kind.
func (p *Program) NewNode(kind NodeKind) *Node {
	n := &Node{ID: p.nextID, Kind: kind}
	p.nextID++
	p.Nodes = append(p.Nodes, n)
	return n
}

// Edge links from → to, maintaining predecessor lists.
func (p *Program) Edge(from, to *Node) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// NumInstructions counts non-terminal nodes, the metric the paper's
// slicing ablation reports.
func (p *Program) NumInstructions() int {
	n := 0
	for _, nd := range p.Nodes {
		switch nd.Kind {
		case Assign, Havoc, Branch, AssertPoint:
			n++
		}
	}
	return n
}

// Topo returns the nodes reachable from Start in a topological order.
// The IR is acyclic by construction (parser loops are unrolled); Topo
// panics if a cycle is found, as that indicates a builder bug.
func (p *Program) Topo() []*Node {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[*Node]int8, len(p.Nodes))
	var order []*Node
	type frame struct {
		n *Node
		i int
	}
	stack := []frame{{p.Start, 0}}
	color[p.Start] = gray
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		if fr.i < len(fr.n.Succs) {
			s := fr.n.Succs[fr.i]
			fr.i++
			switch color[s] {
			case white:
				color[s] = gray
				stack = append(stack, frame{s, 0})
			case gray:
				panic(fmt.Sprintf("ir: cycle through %s", s))
			}
			continue
		}
		color[fr.n] = black
		order = append(order, fr.n)
		stack = stack[:len(stack)-1]
	}
	// Reverse postorder.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}
