// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver with two-literal watching, first-UIP clause learning, Luby
// restarts, phase saving, and assumption-based incremental solving with
// unsat-core extraction over the assumptions.
//
// The solver is the decision substrate for the bitvector SMT layer
// (internal/solver, which bit-blasts terms onto it): bf4's reachability queries and the
// Infer algorithm's model/unsat-core loop both bottom out here. The paper
// uses Z3; this package provides the subset of Z3's functionality those
// algorithms need (check, model, failed assumptions) with identical
// semantics.
//
// The solver knows the circuit it solves. A gate (And, Xor, Ite) is an
// output variable defined over input literals; its Tseitin clauses are
// added with it. Every other clause is a root. Search is justification
// directed (Kuehlmann et al., "Circuit-based Boolean reasoning", DAC 2001):
// a gate the roots or the assumptions need is justified once its assigned
// inputs force its value, and a Solve answers Sat as soon as everything
// needed is justified, not once every variable has a value. A decision is
// an unassigned input of a needed gate that is not justified yet, or a
// variable a conflict has bumped, the most active first (VSIDS), at its
// saved phase. The model is then completed by evaluating every gate from
// the inputs, which keep their values or else their saved phases; the
// saved phases are set to the model, so they stay a point of the circuit.
// A CNF with no gates is all roots and is searched the same way: a root
// clause with no true literal offers its literals.
//
// Search backjumps to the level where a learnt clause asserts, so the trail
// stays in level order, and keeps every learnt clause: on the verifier's
// workloads neither stepping back one level at a time nor learnt-clause
// reduction fired or paid (EXPERIMENTS.md E32). Nothing deletes a clause at
// all: every query is asked as assumptions, so a learnt clause follows from
// the clauses added and holds for every later Solve, and the clause store
// only grows (E34). Luby restarts stay: without them the largest generated
// switch takes 1.4× the conflicts and 1.075× the time (E34).
package sat

import (
	"fmt"
	"slices"
)

// Var is a propositional variable, numbered from 0.
type Var int32

// Lit is a literal: variable 2*v for the positive phase, 2*v+1 for the
// negated phase. The zero value is the positive literal of variable 0;
// use LitUndef for "no literal".
type Lit int32

// LitUndef is a sentinel meaning "no literal".
const LitUndef Lit = -1

// MkLit returns the literal for v, negated if neg is true.
func MkLit(v Var, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the variable of l.
func (l Lit) Var() Var { return Var(l >> 1) }

// Neg returns the complement of l.
func (l Lit) Neg() Lit { return l ^ 1 }

// Sign reports whether l is a negated literal.
func (l Lit) Sign() bool { return l&1 == 1 }

// String renders the literal in DIMACS-like form (1-based, minus = negated).
func (l Lit) String() string {
	if l == LitUndef {
		return "undef"
	}
	if l.Sign() {
		return fmt.Sprintf("-%d", l.Var()+1)
	}
	return fmt.Sprintf("%d", l.Var()+1)
}

// lbool is a three-valued boolean, encoded so that a literal's value is
// its variable's value XOR its sign, with no branch: bit 0 tells true (0)
// from false (1), bit 1 set means unassigned. value() therefore answers 2
// or 3 for an unassigned literal: compare its result with lTrue and lFalse
// only. The assigns array itself holds lTrue, lFalse or lUndef.
type lbool uint8

const (
	lTrue  lbool = 0
	lFalse lbool = 1
	lUndef lbool = 2
)

// The clause database is one flat []uint32, Solver.arena. A clause
// reference (cref) is the offset of the clause's header word,
//
//	size<<sizeShift | learntBit
//
// and the literals follow inline. The store holds no pointer: the
// collector never scans it, CopyFrom copies it in one go, and a clause visit
// in propagate is one dependent load where a slice of clause structs, each
// with its own literal slice, cost two. It is append-only: nothing deletes
// a clause, so a cref names one clause for the solver's whole life and the
// clauses lie back to back in the order they were attached.
const (
	learntBit uint32 = 1 // marks a clause analyze derived
	sizeShift        = 1

	// binFlag tags the watchers of a two-literal clause. It is the top bit
	// of watcher.ref, so every cref has to stay below it (which also keeps
	// crefs inside the int32 reason array).
	binFlag uint32 = 1 << 31
	maxCref        = 1<<31 - 1
)

// mustCref turns an arena offset into a clause reference. An offset that
// would reach binFlag cannot be told from a tagged watcher, so it panics
// here rather than wrap into some other clause's reference.
func mustCref(off int) int32 {
	if off > maxCref {
		panic(fmt.Sprintf("sat: clause arena full: offset %d does not fit a clause reference", off))
	}
	return int32(off)
}

// watcher is one entry of a literal's watch list. The watchers of a
// two-literal clause carry binFlag and have the clause's other literal as
// their blocker, so propagate decides such a clause from the watcher alone
// and reads the arena for it only on a conflict.
type watcher struct {
	ref     uint32 // cref, plus binFlag for a two-literal clause
	blocker Lit    // quick satisfaction check without touching the clause
}

func (w watcher) cref() int32 { return int32(w.ref &^ binFlag) }

// The watch lists hold no pointer either: all of them lie in one pool,
// Solver.watchMem, and a literal's list is a wlist, n watchers from offset
// off with room for cap. A full list that gains a watcher moves to the end
// of the pool with twice the room, and the slots it leaves are dead until
// CopyFrom carves the lists again. The rooms a list has left are each at
// most half the next, so they add up to less than the room it has: less
// than half the pool is ever dead, and nothing compacts it. Moves keep a list's
// order, so the search does not see them.
type wlist struct{ off, n, cap uint32 }

// The gate kinds, in the low bits of a gate's header word in gateIn.
const (
	gateAnd uint32 = 1 + iota // y ↔ ∧ inputs
	gateXor                   // y ↔ a ⊕ b
	gateIte                   // y ↔ (c ? a : b), inputs c, a, b

	gateKind  = 3
	gateShift = 2
)

// justMark is the justification frontier when a decision level opened.
type justMark struct{ n, head, pend int32 }

// pending is an entry of the justification frontier that was not justified
// when justify reached it.
type pending struct {
	e     int32 // a literal or ^cref, as in Solver.just
	at    int32 // the decision level at which it was justified since, or -1: open
	nodes int32 // offset in Solver.nodes of its nodes, one per input
}

// node stands for one input of a pending entry on the list of the entries
// an assignment of that input's variable wakes. prev is -2 while it is on
// no list. v is the input's variable, noted when the node goes on a list:
// propagate reorders a root clause's literals.
type node struct {
	entry, prev, next int32
	v                 Var
}

// Result is the outcome of a Solve call.
type Result int8

const (
	// Unknown is what search answers at its restart limit; Solve never
	// returns it.
	Unknown Result = iota
	// Sat means a satisfying assignment was found.
	Sat
	// Unsat means the formula (under the given assumptions) is
	// unsatisfiable.
	Unsat
)

func (r Result) String() string {
	switch r {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// Solver is a CDCL SAT solver. The zero value is ready to use. Clauses may
// be added between Solve calls (incremental use); variables are created
// with NewVar or implicitly by AddClause.
type Solver struct {
	arena    []uint32  // the clause store, see learntBit
	watches  []wlist   // indexed by Lit, see wlist
	watchMem []watcher // the pool every watch list lies in

	assigns  []lbool // indexed by Var
	level    []int32 // decision level of each assigned var
	reason   []int32 // clause ref that implied the var, or -1
	polarity []bool  // phase saving: last assigned sign
	activity []float64
	seen     []bool // scratch for conflict analysis

	trail    []Lit
	trailLim []int32 // trail index at each decision level
	qhead    int

	// The circuit. gate holds, for each variable, the offset in gateIn of
	// its gate's header (kind | inputs<<gateShift), which the gate's input
	// literals follow, or -1 for an input variable.
	gate   []int32
	gateIn []uint32

	// The justification frontier. just lists what the roots and the
	// assumptions need: gate literals that are true (each variable at most
	// once, marked in needed) and root clauses (^cref) that need a true
	// literal. justify takes the entries in order from justHead: a
	// justified one puts what it needs in turn at the end of just, one that
	// is not opens in pend. An open entry is on the list (waiting heads it,
	// per variable, in nodes) of each of its inputs, and is looked at again
	// when one of them is assigned (wakeHead is how far along the trail
	// that has happened); a variable with a list is an input of an open
	// entry. justLim holds the lengths at each decision level;
	// cancelUntil restores them and reopens the entries justified above the
	// level it returns to, which justify then looks at again.
	just     []int32
	justHead int
	needed   []bool
	pend     []pending
	open     int
	nodes    []node
	waiting  []int32
	wakeHead int
	reopened []int32
	justLim  []justMark
	woken    []int32 // justify's scratch

	// The decision order: VSIDS activity, the later variable first among
	// equals. heap holds the variables a conflict has bumped, cold those it
	// has not; a variable goes in when it is unassigned and a candidate
	// (branch), and may still be there when it is neither any more. The
	// bit queue takes no comparison for the unbumped ones, most of a
	// circuit's: one heap holding both costs 1.13× the operation time on
	// switch@2 (EXPERIMENTS.md E45).
	heap varHeap
	cold bitQueue

	varInc  float64
	okState bool // false once the clause set is unsat at level 0

	model      []lbool
	conflictCs []Lit // failed assumptions (negated), valid after Unsat

	// addBuf and learntBuf are AddClause's and analyze's scratch: the
	// normalised or learnt clause is built here and copied into the arena.
	addBuf, learntBuf []Lit

	// afterBacktrack, when set, runs after every backtrack, given the level
	// it left; in-package tests check the trail there.
	afterBacktrack func(s *Solver, from int)

	stats     Stats
	problemCs int // count of non-learnt clauses
}

// Stats is a snapshot of the solver's cumulative search statistics.
// Callers that need per-query numbers take a snapshot before and after a
// Solve call and subtract (Sub): the counters themselves are cumulative
// across the solver's lifetime, which under solver reuse (incremental
// checks, worker pools) would misattribute work across queries.
type Stats struct {
	// Conflicts is the number of conflicts hit during search.
	Conflicts int64
	// Propagations is the number of unit propagations.
	Propagations int64
	// Decisions is the number of branching decisions.
	Decisions int64
	// Restarts is the number of Luby restarts taken.
	Restarts int64
	// Learned is the number of clauses learned from conflicts (including
	// unit clauses that never enter the clause database).
	Learned int64
	// CancelledLiterals is the number of literals backtracking unassigned.
	CancelledLiterals int64
}

// Sub returns the component-wise difference a - b: the work done between
// snapshot b and snapshot a.
func (a Stats) Sub(b Stats) Stats {
	return Stats{
		Conflicts:         a.Conflicts - b.Conflicts,
		Propagations:      a.Propagations - b.Propagations,
		Decisions:         a.Decisions - b.Decisions,
		Restarts:          a.Restarts - b.Restarts,
		Learned:           a.Learned - b.Learned,
		CancelledLiterals: a.CancelledLiterals - b.CancelledLiterals,
	}
}

// StatsSnapshot returns the current cumulative search statistics.
func (s *Solver) StatsSnapshot() Stats { return s.stats }

// New returns an empty solver. Equivalent to new(Solver) but reads better
// at call sites.
func New() *Solver {
	s := &Solver{}
	s.init()
	return s
}

func (s *Solver) init() {
	if s.varInc == 0 {
		s.varInc = 1
		s.okState = true
		s.heap.activity = &s.activity
	}
}

// Reset empties s and keeps its arrays: what follows — variables, clauses,
// answers, search effort — is what it would be on New(), whatever s held
// before. Every field is named here or zero, so one added later starts
// zero rather than stale.
func (s *Solver) Reset() *Solver {
	*s = Solver{
		arena: s.arena[:0], watches: s.watches[:0], watchMem: s.watchMem[:0],
		assigns: s.assigns[:0], level: s.level[:0], reason: s.reason[:0],
		polarity: s.polarity[:0], activity: s.activity[:0], seen: s.seen[:0],
		trail: s.trail[:0], trailLim: s.trailLim[:0],
		gate: s.gate[:0], gateIn: s.gateIn[:0], just: s.just[:0], needed: s.needed[:0], pend: s.pend[:0], nodes: s.nodes[:0],
		waiting: s.waiting[:0], reopened: s.reopened[:0], justLim: s.justLim[:0],
		woken: s.woken[:0],
		heap:  varHeap{heap: s.heap.heap[:0], indices: s.heap.indices[:0]},
		cold:  bitQueue{words: s.cold.words[:0], summary: s.cold.summary[:0]},
		model: s.model[:0], conflictCs: s.conflictCs[:0],
		addBuf: s.addBuf[:0], learntBuf: s.learntBuf[:0],
	}
	s.init()
	return s
}

// The arrays grow by doubling from a first step small enough that a
// hundred-variable solver pays nothing for it. append alone would grow a
// large slice by a quarter at a time and so allocate five times its final
// size on the way there; doubling allocates twice.
const (
	firstVars     = 64  // variables
	firstWords    = 512 // arena and gate input words, watch pool slots
	firstWatchers = 2   // room of a watch list's first move
)

// regrow returns s with room for at least n elements, contents kept.
func regrow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s
	}
	return append(make([]T, 0, n), s...)
}

// growVars makes room for n variables in every array indexed by variable
// or literal, and in the trail, which holds each variable at most once:
// they are always grown here, together, so none of them ever grows on its
// own append.
func (s *Solver) growVars(n int) {
	s.assigns = regrow(s.assigns, n)
	s.level = regrow(s.level, n)
	s.reason = regrow(s.reason, n)
	s.polarity = regrow(s.polarity, n)
	s.activity = regrow(s.activity, n)
	s.seen = regrow(s.seen, n)
	s.gate = regrow(s.gate, n)
	s.needed = regrow(s.needed, n)
	s.waiting = regrow(s.waiting, n)
	s.watches = regrow(s.watches, 2*n)
	s.trail = regrow(s.trail, n)
	s.heap.indices = regrow(s.heap.indices, n)
}

// NumVars returns the number of variables created so far.
func (s *Solver) NumVars() int { return len(s.assigns) }

// Bytes returns the size of the arrays s holds on to, used or not: what
// keeping s around for reuse costs.
func (s *Solver) Bytes() int {
	perVar := cap(s.assigns) + 4*cap(s.level) + 4*cap(s.reason) + cap(s.polarity) + 8*cap(s.activity) +
		cap(s.seen) + 4*cap(s.trail) + 4*cap(s.gate) + cap(s.needed) + 4*cap(s.waiting) +
		4*cap(s.heap.heap) + 4*cap(s.heap.indices) + 8*cap(s.cold.words) + 8*cap(s.cold.summary) + cap(s.model) +
		4*cap(s.just) + 12*cap(s.pend) + 16*cap(s.nodes) + 4*cap(s.reopened) + 4*cap(s.woken)
	return 4*cap(s.arena) + 4*cap(s.gateIn) + perVar + 12*cap(s.watches) + 8*cap(s.watchMem)
}

// NumClauses returns the number of problem (non-learnt) clauses of two or
// more literals. The count is kept on attach, so per-check CNF-growth
// snapshots are O(1) instead of a walk over the clause database.
func (s *Solver) NumClauses() int { return s.problemCs }

// Conflicts returns the cumulative number of conflicts across Solve calls.
func (s *Solver) Conflicts() int64 { return s.stats.Conflicts }

// Propagations returns the cumulative number of unit propagations.
func (s *Solver) Propagations() int64 { return s.stats.Propagations }

// NewVar creates a fresh variable and returns it.
func (s *Solver) NewVar() Var {
	s.init()
	v := Var(len(s.assigns))
	if len(s.assigns) == cap(s.assigns) {
		s.growVars(max(firstVars, 2*cap(s.assigns)))
	}
	s.assigns = append(s.assigns, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, -1)
	s.polarity = append(s.polarity, true) // default phase: false (sign=true)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.gate = append(s.gate, -1)
	s.needed = append(s.needed, false)
	s.waiting = append(s.waiting, -1)
	s.heap.indices = append(s.heap.indices, -1)
	s.cold.grow(len(s.assigns))
	s.watches = append(s.watches, wlist{}, wlist{})
	return v
}

// SetPhase sets the saved phase of v: the value the next decision on v
// tries first, until search overwrites it (phase saving). Fresh variables
// start false.
func (s *Solver) SetPhase(v Var, phase bool) {
	s.ensureVar(v)
	s.polarity[v] = !phase
}

// Phase returns the saved phase of v: what SetPhase or v's last assignment
// left (a level-0 fact reads its value; after Sat, every variable its model's).
func (s *Solver) Phase(v Var) bool { return !s.polarity[v] }

// CopyFrom overwrites s with a deep copy of src — clause database with
// learnt clauses, circuit, watch lists, level-0 trail and justification
// frontier, activities, saved phases and statistics — and returns s.
// Nothing s held before shows afterwards, but its arrays are written over
// in place where they are large enough, so copying into a solver that is
// done with is a copy and not an allocation. The copy shares no mutable
// memory with src, so the two may be used from different goroutines, and
// it continues exactly as src would have. src must be at decision level 0
// (between Solve calls).
func (s *Solver) CopyFrom(src *Solver) *Solver {
	src.init()
	if src.decisionLevel() != 0 {
		panic("sat: CopyFrom above decision level 0")
	}
	buf := *s.Reset() // the receiver's arrays, emptied
	// Where they are too small, the new ones get an eighth more than src
	// fills: what a fork adds to its base — a few hundred variables, its
	// learnt clauses — must not be what doubles every array.
	room := func(n int) int { return n + n/8 }
	buf.growVars(room(len(src.assigns)))
	*s = *src
	s.arena = append(regrow(buf.arena, room(len(src.arena))), src.arena...)
	s.gateIn = append(regrow(buf.gateIn, room(len(src.gateIn))), src.gateIn...)
	// The watch lists are carved again, each at exactly its length and
	// with no dead slot between them; the room is the pool's, for the
	// lists that move.
	nWatches := 0
	for _, wl := range src.watches {
		nWatches += int(wl.n)
	}
	s.watchMem = regrow(buf.watchMem, room(nWatches))
	s.watches = buf.watches
	for _, wl := range src.watches {
		off := uint32(len(s.watchMem))
		s.watchMem = append(s.watchMem, src.watchList(wl)...)
		s.watches = append(s.watches, wlist{off, wl.n, wl.n})
	}
	s.assigns = append(buf.assigns, src.assigns...)
	s.level = append(buf.level, src.level...)
	s.reason = append(buf.reason, src.reason...)
	s.polarity = append(buf.polarity, src.polarity...)
	s.activity = append(buf.activity, src.activity...)
	s.seen = append(buf.seen, src.seen...)
	s.gate = append(buf.gate, src.gate...)
	s.needed = append(buf.needed, src.needed...)
	s.just = append(buf.just, src.just...)
	s.pend = append(buf.pend, src.pend...)
	s.nodes = append(buf.nodes, src.nodes...)
	s.waiting = append(buf.waiting, src.waiting...)
	s.reopened = append(buf.reopened, src.reopened...)
	s.woken = buf.woken
	s.justLim = buf.justLim
	s.trail = append(buf.trail, src.trail...)
	s.trailLim = buf.trailLim
	s.model = append(buf.model, src.model...)
	s.conflictCs = append(buf.conflictCs, src.conflictCs...)
	s.addBuf, s.learntBuf = buf.addBuf, buf.learntBuf
	s.heap = varHeap{
		heap:     append(buf.heap.heap, src.heap.heap...),
		indices:  append(buf.heap.indices, src.heap.indices...),
		activity: &s.activity,
	}
	s.cold = bitQueue{
		words:   append(buf.cold.words, src.cold.words...),
		summary: append(buf.cold.summary, src.cold.summary...),
	}
	return s
}

func (s *Solver) ensureVar(v Var) {
	for Var(len(s.assigns)) <= v {
		s.NewVar()
	}
}

// value is l's current truth value; see lbool for what it returns when l
// is unassigned.
func (s *Solver) value(l Lit) lbool { return s.assigns[l>>1] ^ lbool(l&1) }

// litsOf returns the literals of clause cref as a window on the arena.
func (s *Solver) litsOf(cref int32) []uint32 {
	return s.arena[cref+1 : cref+1+int32(s.arena[cref]>>sizeShift)]
}

// AddClause adds a root: a disjunction of literals every model satisfies.
// It returns false if the clause set became trivially unsatisfiable
// (conflicting unit clauses at level 0). AddClause must be called at
// decision level 0, i.e. not during Solve.
func (s *Solver) AddClause(lits ...Lit) bool { return s.addClause(lits, true) }

// addClause adds a clause, a root or one of a gate's definition, and puts a
// root on the justification frontier.
func (s *Solver) addClause(lits []Lit, root bool) bool {
	s.init()
	if !s.okState {
		return false
	}
	for _, l := range lits {
		s.ensureVar(l.Var())
	}
	// Normalize: drop duplicate and false literals; detect tautology and
	// already-satisfied clauses. Clauses are a handful of literals, so
	// scanning the kept prefix beats any per-clause set.
	out := s.addBuf[:0]
nextLit:
	for _, l := range lits {
		switch s.value(l) {
		case lTrue:
			return true // satisfied
		case lFalse:
			continue
		}
		for _, q := range out {
			if q == l {
				continue nextLit
			}
			if q == l.Neg() {
				return true // tautological
			}
		}
		out = append(out, l)
	}
	s.addBuf = out
	switch len(out) {
	case 0:
		s.okState = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], 0, -1)
		if root {
			s.need(out[0])
		}
		if s.propagate() != -1 {
			s.okState = false
			return false
		}
		return true
	}
	cref := s.attachClause(out, false)
	if root {
		s.just = append(s.just, ^cref)
	}
	return true
}

// And returns the output of a new gate y ↔ ∧ ins over two or more input
// literals, and adds its Tseitin clauses. And, Xor and Ite must be called
// at decision level 0.
func (s *Solver) And(ins ...Lit) Lit {
	y := s.newGate(gateAnd, ins)
	long := make([]Lit, 0, len(ins)+1)
	long = append(long, y)
	for _, l := range ins {
		s.addClause([]Lit{y.Neg(), l}, false) // y -> l
		long = append(long, l.Neg())
	}
	s.addClause(long, false) // all l -> y
	return y
}

// Xor returns the output of a new gate y ↔ a ⊕ b and adds its Tseitin
// clauses.
func (s *Solver) Xor(a, b Lit) Lit {
	y := s.newGate(gateXor, []Lit{a, b})
	s.addClause([]Lit{y.Neg(), a, b}, false)
	s.addClause([]Lit{y.Neg(), a.Neg(), b.Neg()}, false)
	s.addClause([]Lit{y, a.Neg(), b}, false)
	s.addClause([]Lit{y, a, b.Neg()}, false)
	return y
}

// Ite returns the output of a new gate y ↔ (c ? a : b) and adds its
// Tseitin clauses.
func (s *Solver) Ite(c, a, b Lit) Lit {
	y := s.newGate(gateIte, []Lit{c, a, b})
	s.addClause([]Lit{c.Neg(), a.Neg(), y}, false)
	s.addClause([]Lit{c.Neg(), a, y.Neg()}, false)
	s.addClause([]Lit{c, b.Neg(), y}, false)
	s.addClause([]Lit{c, b, y.Neg()}, false)
	// Redundant but propagation-helping: if a and b agree, y agrees.
	s.addClause([]Lit{a.Neg(), b.Neg(), y}, false)
	s.addClause([]Lit{a, b, y.Neg()}, false)
	return y
}

// newGate records a gate of the given kind over ins, with a fresh output
// variable after all of theirs, and returns the output's positive literal.
// The output's first saved phase is the gate's function of its inputs'
// saved phases. The saved phases are then a point of the circuit — the
// all-zeros input on a fresh solver, the last model after a Sat answer —
// so a descent that follows them can contradict a root or an assumption,
// never a gate definition.
func (s *Solver) newGate(kind uint32, ins []Lit) Lit {
	for _, l := range ins {
		s.ensureVar(l.Var())
	}
	v := s.NewVar()
	g := int32(len(s.gateIn))
	s.gate[v] = g
	if need := len(s.gateIn) + 1 + len(ins); need > cap(s.gateIn) {
		s.gateIn = regrow(s.gateIn, max(firstWords, 2*cap(s.gateIn), need))
	}
	s.gateIn = append(s.gateIn, kind|uint32(len(ins))<<gateShift)
	for _, l := range ins {
		s.gateIn = append(s.gateIn, uint32(l))
	}
	s.SetPhase(v, s.eval(g))
	return MkLit(v, false)
}

// gateOf returns the kind and the input literals of the gate at offset g.
func (s *Solver) gateOf(g int32) (uint32, []uint32) {
	h := s.gateIn[g]
	return h & gateKind, s.gateIn[g+1 : g+1+int32(h>>gateShift)]
}

// phase is the saved phase of literal l.
func (s *Solver) phase(l Lit) bool { return s.Phase(l.Var()) != l.Sign() }

// eval returns the gate at offset g's function of its inputs' saved phases.
func (s *Solver) eval(g int32) bool {
	kind, ins := s.gateOf(g)
	switch kind {
	case gateAnd:
		for _, w := range ins {
			if !s.phase(Lit(w)) {
				return false
			}
		}
		return true
	case gateXor:
		return s.phase(Lit(ins[0])) != s.phase(Lit(ins[1]))
	}
	if s.phase(Lit(ins[0])) {
		return s.phase(Lit(ins[1]))
	}
	return s.phase(Lit(ins[2]))
}

// attachClause copies lits (two or more) into the arena as a new clause and
// puts it on the watch lists of its first two literals, tagged when those
// are all it has.
func (s *Solver) attachClause(lits []Lit, learnt bool) int32 {
	cref := mustCref(len(s.arena))
	h := uint32(len(lits)) << sizeShift
	if need := len(s.arena) + 1 + len(lits); need > cap(s.arena) {
		s.arena = regrow(s.arena, max(firstWords, 2*cap(s.arena), need))
	}
	if learnt {
		h |= learntBit
	} else {
		s.problemCs++
	}
	s.arena = append(s.arena, h)
	for _, l := range lits {
		s.arena = append(s.arena, uint32(l))
	}
	ref := uint32(cref)
	if len(lits) == 2 {
		ref |= binFlag
	}
	l0, l1 := lits[0], lits[1]
	s.watch(l0.Neg(), watcher{ref, l1})
	s.watch(l1.Neg(), watcher{ref, l0})
	return cref
}

// watchList returns the watchers of list wl as a window on the pool.
func (s *Solver) watchList(wl wlist) []watcher {
	return s.watchMem[wl.off : wl.off+wl.n]
}

// watch appends w to l's watch list. A full list first moves, which may
// grow the pool into a new array: a window on the pool taken before is
// stale afterwards, though every other list keeps its offset.
func (s *Solver) watch(l Lit, w watcher) {
	wl := &s.watches[l]
	if wl.n == wl.cap {
		s.moveWatches(wl)
	}
	s.watchMem[wl.off+wl.n] = w
	wl.n++
}

// moveWatches moves list wl, which is full, to the end of the pool with
// twice the room, growing the pool by doubling where it has too little.
func (s *Solver) moveWatches(wl *wlist) {
	room := max(firstWatchers, 2*wl.cap)
	off := len(s.watchMem)
	if need := off + int(room); need > cap(s.watchMem) {
		s.watchMem = regrow(s.watchMem, max(firstWords, 2*cap(s.watchMem), need))
	}
	s.watchMem = append(s.watchMem, s.watchList(*wl)...)[:off+int(room)]
	*wl = wlist{uint32(off), wl.n, room}
}

// uncheckedEnqueue makes l true at the given level with reason from.
func (s *Solver) uncheckedEnqueue(l Lit, level int32, from int32) {
	v := l.Var()
	s.assigns[v] = lbool(l & 1)
	s.level[v] = level
	s.reason[v] = from
	s.polarity[v] = l.Sign()
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; returns the conflicting clause ref
// or -1 if no conflict.
func (s *Solver) propagate() int32 {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		off := s.watches[p].off
		ws := s.watchList(s.watches[p])
		notP := uint32(p.Neg())
		n := 0
	nextWatcher:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			bv := s.value(w.blocker)
			if bv == lTrue {
				ws[n] = w
				n++
				continue
			}
			s.stats.Propagations++
			cref := w.cref()
			first := w.blocker
			if w.ref&binFlag == 0 {
				lits := s.litsOf(cref)
				// Ensure the false literal is lits[1].
				if lits[0] == notP {
					lits[0], lits[1] = lits[1], notP
				}
				first = Lit(lits[0])
				if first != w.blocker && s.value(first) == lTrue {
					ws[n] = watcher{w.ref, first}
					n++
					continue
				}
				// Look for a new literal to watch.
				for k := 2; k < len(lits); k++ {
					if s.value(Lit(lits[k])) != lFalse {
						lits[1], lits[k] = lits[k], lits[1]
						s.watch(Lit(lits[1]).Neg(), watcher{w.ref, first})
						// The pool may have grown into a new array, which
						// holds p's list where it was, as far as written.
						ws = s.watchMem[off : off+uint32(len(ws))]
						continue nextWatcher
					}
				}
				bv = s.value(first)
			}
			// Clause is unit or conflicting.
			ws[n] = watcher{w.ref, first}
			n++
			if bv == lFalse {
				if w.ref&binFlag != 0 {
					// The one time a two-literal clause's order shows:
					// analyze walks the conflict clause front to back, and
					// a clause visited through the arena would stand with
					// its false watch second.
					lits := s.litsOf(cref)
					lits[0], lits[1] = uint32(first), notP
				}
				// Conflict: copy remaining watchers and bail.
				for i++; i < len(ws); i++ {
					ws[n] = ws[i]
					n++
				}
				s.watches[p].n = uint32(n)
				s.qhead = len(s.trail)
				return cref
			}
			s.uncheckedEnqueue(first, int32(len(s.trailLim)), cref)
		}
		s.watches[p].n = uint32(n)
	}
	return -1
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) newDecisionLevel() {
	s.trailLim = append(s.trailLim, int32(len(s.trail)))
	s.justLim = append(s.justLim, justMark{int32(len(s.just)), int32(s.justHead), int32(len(s.pend))})
}

// decide opens a decision level with l as its decision.
func (s *Solver) decide(l Lit) {
	s.newDecisionLevel()
	s.uncheckedEnqueue(l, int32(len(s.trailLim)), -1)
}

// cancelUntil backtracks to level: it unassigns, last first, the literals
// above it, and restores the justification frontier level had.
func (s *Solver) cancelUntil(level int) {
	from := s.decisionLevel()
	if from <= level {
		return
	}
	bound := int(s.trailLim[level])
	mark := s.justLim[level]
	for _, e := range s.just[mark.n:] {
		s.needed[Lit(e).Var()] = false // only roots, added at level 0, are negative
	}
	s.just, s.justHead, s.justLim = s.just[:mark.n], int(mark.head), s.justLim[:level]
	s.wakeHead = min(s.wakeHead, bound)
	for i := int32(len(s.pend)) - 1; i >= mark.pend; i-- {
		if s.pend[i].at < 0 {
			s.setOpen(i, false)
		}
	}
	if int(mark.pend) < len(s.pend) {
		s.nodes = s.nodes[:s.pend[mark.pend].nodes]
		s.pend = s.pend[:mark.pend]
	}
	for i := range s.pend {
		if s.pend[i].at > int32(level) {
			s.pend[i].at = -1
			s.setOpen(int32(i), true)
			s.reopened = append(s.reopened, int32(i))
		}
	}
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].Var()
		s.assigns[v] = lUndef
		s.reason[v] = -1
		if s.candidate(v) {
			s.offer(v)
		}
	}
	s.stats.CancelledLiterals += int64(len(s.trail) - bound)
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = bound
	if s.afterBacktrack != nil {
		s.afterBacktrack(s, from)
	}
}

// bumpVar raises v's activity (VSIDS), which orders the decisions.
func (s *Solver) bumpVar(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	switch {
	case s.heap.inHeap(v):
		s.heap.decrease(v)
	case s.cold.has(v):
		s.cold.remove(v)
		s.heap.insert(v)
	}
}

// offer puts v, an unassigned candidate, in the decision order.
func (s *Solver) offer(v Var) {
	switch {
	case s.activity[v] == 0:
		s.cold.add(v)
	case !s.heap.inHeap(v):
		s.heap.insert(v)
	}
}

// need puts on the justification frontier the true literal of l's
// variable, which is assigned, if it is a gate's output and not there yet.
// An input is justified by its value alone.
func (s *Solver) need(l Lit) {
	v := l.Var()
	if s.gate[v] < 0 || s.needed[v] {
		return
	}
	s.needed[v] = true
	s.just = append(s.just, int32(l^Lit(s.value(l))))
}

// justify brings the frontier up to date with the assignment: it looks
// again at the open entries an input of which was assigned since it last
// ran, and at the entries cancelUntil reopened, and takes the entries of
// just from justHead on. An entry the assignment justifies closes, and puts
// what it needs at the end of just (justified); one it does not opens.
func (s *Solver) justify() {
	for {
		switch {
		case s.wakeHead < len(s.trail):
			v := s.trail[s.wakeHead].Var()
			s.wakeHead++
			s.woken = s.woken[:0]
			for n := s.waiting[v]; n >= 0; n = s.nodes[n].next {
				s.woken = append(s.woken, s.nodes[n].entry)
			}
			for _, i := range s.woken {
				s.recheck(i)
			}
		case len(s.reopened) > 0:
			i := s.reopened[len(s.reopened)-1]
			s.reopened = s.reopened[:len(s.reopened)-1]
			if int(i) < len(s.pend) {
				s.recheck(i)
			}
		case s.justHead < len(s.just):
			e := s.just[s.justHead]
			s.justHead++
			if !s.justified(e) {
				s.openEntry(e)
			}
		default:
			return
		}
	}
}

// justified reports whether the assignment justifies entry e, and if so
// puts on the frontier what it needs:
//
//   - a root clause: one true literal;
//   - a true AND: all of its inputs; a false one: one false input;
//   - an XOR: both inputs;
//   - an ITE: the condition and the input it selects.
func (s *Solver) justified(e int32) bool {
	if e < 0 {
		lits := s.litsOf(^e)
		i := slices.IndexFunc(lits, func(w uint32) bool { return s.value(Lit(w)) == lTrue })
		if i >= 0 {
			s.need(Lit(lits[i]))
		}
		return i >= 0
	}
	y := Lit(e)
	kind, ins := s.gateOf(s.gate[y.Var()])
	switch {
	case kind == gateAnd && !y.Sign():
		for _, w := range ins {
			s.need(Lit(w))
		}
	case kind == gateAnd:
		i := slices.IndexFunc(ins, func(w uint32) bool { return s.value(Lit(w)) == lFalse })
		if i < 0 {
			return false
		}
		s.need(Lit(ins[i]))
	case kind == gateXor:
		if s.assigns[Lit(ins[0]).Var()] == lUndef || s.assigns[Lit(ins[1]).Var()] == lUndef {
			return false
		}
		s.need(Lit(ins[0]))
		s.need(Lit(ins[1]))
	default:
		c := Lit(ins[0])
		if s.assigns[c.Var()] == lUndef {
			return false
		}
		// Propagation has given the selected input y's value.
		s.need(c)
		s.need(Lit(ins[1+s.value(c)]))
	}
	return true
}

// inputs returns the literals of a root clause, or the inputs of a gate.
func (s *Solver) inputs(e int32) []uint32 {
	if e < 0 {
		return s.litsOf(^e)
	}
	_, ins := s.gateOf(s.gate[Lit(e).Var()])
	return ins
}

// openEntry adds e, which the assignment does not justify, to pend, open.
func (s *Solver) openEntry(e int32) {
	i := int32(len(s.pend))
	s.pend = append(s.pend, pending{e: e, at: -1, nodes: int32(len(s.nodes))})
	for range s.inputs(e) {
		s.nodes = append(s.nodes, node{entry: i, prev: -2})
	}
	s.setOpen(i, true)
}

// recheck closes pend entry i if it is open and the assignment now
// justifies it.
func (s *Solver) recheck(i int32) {
	if s.pend[i].at < 0 && s.justified(s.pend[i].e) {
		s.pend[i].at = int32(s.decisionLevel())
		s.setOpen(i, false)
	}
}

// setOpen opens pend entry i or closes it: it puts the entry's nodes on
// the lists of its inputs' variables, or takes them off. An unassigned
// input of an opening entry goes in the decision order.
func (s *Solver) setOpen(i int32, open bool) {
	p := s.pend[i]
	if open {
		s.open++
	} else {
		s.open--
	}
	for k, w := range s.inputs(p.e) {
		n := p.nodes + int32(k)
		nd := &s.nodes[n]
		if open {
			nd.v = Lit(w).Var()
		}
		v := nd.v
		if open {
			nd.prev, nd.next = -1, s.waiting[v]
			if nd.next >= 0 {
				s.nodes[nd.next].prev = n
			}
			s.waiting[v] = n
			if s.assigns[v] == lUndef {
				s.offer(v)
			}
			continue
		}
		if nd.prev >= 0 {
			s.nodes[nd.prev].next = nd.next
		} else {
			s.waiting[v] = nd.next
		}
		if nd.next >= 0 {
			s.nodes[nd.next].prev = nd.prev
		}
		nd.prev = -2
	}
}

// branch returns the next decision, or LitUndef when no entry of the
// frontier is open: everything the roots and the assumptions need is then
// justified. The candidates are the unassigned inputs of the open entries,
// and the variables conflicts have bumped, which stay candidates wherever
// they are: a conflict is cheapest where it is met early. The decision is
// the first candidate in the decision order, at its saved phase.
func (s *Solver) branch() Lit {
	if s.open == 0 {
		return LitUndef
	}
	for {
		v, ok := s.heap.removeMin()
		if !ok {
			if v, ok = s.cold.max(); !ok {
				panic("sat: an open entry of the justification frontier offers no decision")
			}
			s.cold.remove(v)
		}
		if s.assigns[v] == lUndef && s.candidate(v) {
			return MkLit(v, s.polarity[v])
		}
	}
}

// candidate reports whether v may be decided on: it is an input of an open
// entry, or a conflict has bumped it.
func (s *Solver) candidate(v Var) bool { return s.waiting[v] >= 0 || s.activity[v] > 0 }

// complete extends the assignment to a model once the frontier is empty:
// an input keeps its value, or else its saved phase, and each gate, whose
// inputs come before it, takes its function of theirs. What the roots and
// the assumptions need is justified, so the model keeps their values and
// satisfies them; it satisfies every gate definition by construction, and
// hence every learnt clause. The saved phases are set to the model.
func (s *Solver) complete() {
	s.model = regrow(s.model[:0], len(s.assigns))
	for v, g := range s.gate {
		switch {
		case g >= 0:
			s.polarity[v] = !s.eval(g)
		case s.assigns[v] != lUndef:
			s.polarity[v] = s.assigns[v] == lFalse
		}
		m := lTrue
		if s.polarity[v] {
			m = lFalse
		}
		s.model = append(s.model, m)
	}
}

// analyze computes the first-UIP learnt clause from the conflicting clause,
// which holds at least two literals of the current level, and returns it,
// in the solver's scratch buffer, together with the backjump level.
func (s *Solver) analyze(confl int32) ([]Lit, int) {
	learnt := append(s.learntBuf[:0], LitUndef) // slot 0 reserved for the asserting literal
	counter := 0
	p := LitUndef
	resolved := Var(-1) // the variable confl is the reason of
	idx := len(s.trail) - 1
	level := int32(s.decisionLevel())

	for {
		for _, w := range s.litsOf(confl) {
			q := Lit(w)
			v := q.Var()
			// A reason clause holds its implied literal at any position
			// (a two-literal one is never reordered), so it is skipped by
			// value.
			if v == resolved || s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if s.level[v] >= level {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Select next literal on the trail to resolve on: the last seen one.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		resolved = p.Var()
		s.seen[resolved] = false
		counter--
		if counter == 0 {
			break
		}
		confl = s.reason[resolved]
	}
	learnt[0] = p.Neg()
	s.learntBuf = learnt // keep the grown buffer

	// Minimize: remove literals implied by the rest (simple self-subsumption
	// over direct reasons). Clear seen flags of removed literals here; the
	// kept ones are cleared below.
	out := learnt[:1]
	for _, q := range learnt[1:] {
		if s.redundant(q) {
			s.seen[q.Var()] = false
		} else {
			out = append(out, q)
		}
	}
	learnt = out

	// Compute backtrack level: second-highest level in the clause.
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.level[learnt[1].Var()])
	}
	for _, q := range learnt {
		s.seen[q.Var()] = false
	}
	// seen flags for removed redundant literals are cleared in redundant().
	return learnt, btLevel
}

// redundant reports whether literal q is implied by the other literals in
// the learnt clause, looking one reason step deep.
func (s *Solver) redundant(q Lit) bool {
	r := s.reason[q.Var()]
	if r < 0 {
		return false
	}
	for _, w := range s.litsOf(r) {
		v := Lit(w).Var()
		if v == q.Var() {
			continue
		}
		if !s.seen[v] && s.level[v] != 0 {
			return false
		}
	}
	return true
}

// markReasonLits flags, for conflict-core extraction, the variables above
// level 0 that clause cref mentions.
func (s *Solver) markReasonLits(cref int32) {
	for _, w := range s.litsOf(cref) {
		if v := Lit(w).Var(); s.level[v] > 0 {
			s.seen[v] = true
		}
	}
}

// analyzeFinal computes the set of assumption literals responsible for
// assumption p being falsified. The result — a subset of the original
// assumptions, including p itself — is stored in s.conflictCs.
func (s *Solver) analyzeFinal(p Lit) {
	s.conflictCs = s.conflictCs[:0]
	s.conflictCs = append(s.conflictCs, p)
	if s.decisionLevel() == 0 {
		return
	}
	s.seen[p.Var()] = true
	for i := len(s.trail) - 1; i >= int(s.trailLim[0]); i-- {
		v := s.trail[i].Var()
		if !s.seen[v] {
			continue
		}
		if s.reason[v] == -1 {
			if s.level[v] > 0 {
				// Decisions above level 0 are exactly the enqueued
				// assumptions, in their original polarity.
				s.conflictCs = append(s.conflictCs, s.trail[i])
			}
		} else {
			s.markReasonLits(s.reason[v])
		}
		s.seen[v] = false
	}
	s.seen[p.Var()] = false
}

// analyzeFinalConfl is like analyzeFinal but starts from a conflicting
// clause instead of a single failed assumption.
func (s *Solver) analyzeFinalConfl(confl int32) {
	s.conflictCs = s.conflictCs[:0]
	if s.decisionLevel() == 0 {
		return
	}
	s.markReasonLits(confl)
	for i := len(s.trail) - 1; i >= int(s.trailLim[0]); i-- {
		v := s.trail[i].Var()
		if !s.seen[v] {
			continue
		}
		if s.reason[v] == -1 {
			s.conflictCs = append(s.conflictCs, s.trail[i])
		} else {
			s.markReasonLits(s.reason[v])
		}
		s.seen[v] = false
	}
}

// luby computes the Luby restart sequence value for index i (1-based).
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (1<<k)-1 {
			return 1 << (k - 1)
		}
		if i >= 1<<k {
			continue
		}
		return luby(i - (1 << (k - 1)) + 1)
	}
}

// Solve determines satisfiability of the added clauses under the given
// assumptions. On Sat, Value reports the model; on Unsat, FailedAssumptions
// returns a subset of the assumptions sufficient for unsatisfiability.
func (s *Solver) Solve(assumptions ...Lit) Result {
	s.init()
	if !s.okState {
		s.conflictCs = s.conflictCs[:0]
		return Unsat
	}
	for _, a := range assumptions {
		s.ensureVar(a.Var())
	}
	defer s.cancelUntil(0)
	for restart := int64(1); ; restart++ {
		if res := s.search(assumptions, luby(restart)*100); res != Unknown {
			return res
		}
		s.stats.Restarts++
		s.cancelUntil(0)
	}
}

// search runs CDCL until a result or the restart limit.
func (s *Solver) search(assumptions []Lit, conflictLimit int64) Result {
	var conflictC int64
	for {
		confl := s.propagate()
		if confl != -1 {
			s.stats.Conflicts++
			conflictC++
			level := s.decisionLevel()
			if level == 0 {
				s.okState = false
				s.conflictCs = s.conflictCs[:0]
				return Unsat
			}
			if level <= len(assumptions) {
				// Conflict within the assumption prefix: the assumptions
				// are jointly unsatisfiable.
				s.analyzeFinalConfl(confl)
				return Unsat
			}
			learnt, btLevel := s.analyze(confl)
			s.stats.Learned++
			// A learnt unit goes to level 0 without a reason (and the
			// assumptions are re-established on the next loop iterations).
			reason := int32(-1)
			if len(learnt) > 1 {
				reason = s.attachClause(learnt, true)
			}
			s.cancelUntil(btLevel)
			s.uncheckedEnqueue(learnt[0], int32(btLevel), reason)
			s.varInc /= 0.95
			continue
		}
		if conflictC >= conflictLimit {
			return Unknown
		}
		s.justify()
		// Establish assumptions one decision level at a time.
		if s.decisionLevel() < len(assumptions) {
			p := assumptions[s.decisionLevel()]
			switch s.value(p) {
			case lTrue:
				s.newDecisionLevel() // dummy level to keep indices aligned
			case lFalse:
				s.analyzeFinal(p)
				return Unsat
			default:
				s.decide(p)
			}
			s.need(p)
			continue
		}
		next := s.branch()
		if next == LitUndef {
			s.complete()
			return Sat
		}
		s.stats.Decisions++
		s.decide(next)
	}
}

// Value reports the model value of variable v after a Sat result.
func (s *Solver) Value(v Var) bool {
	if int(v) >= len(s.model) {
		return false
	}
	return s.model[v] == lTrue
}

// ValueLit reports the model value of literal l after a Sat result.
func (s *Solver) ValueLit(l Lit) bool {
	v := s.Value(l.Var())
	if l.Sign() {
		return !v
	}
	return v
}

// FailedAssumptions returns, after an Unsat result, a subset of the Solve
// assumptions that is sufficient for unsatisfiability (an unsat core over
// the assumptions). The returned slice is valid until the next Solve.
func (s *Solver) FailedAssumptions() []Lit {
	return s.conflictCs
}
