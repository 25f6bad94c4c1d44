// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver with two-literal watching, VSIDS branching, first-UIP clause
// learning, Luby restarts, phase saving, and assumption-based incremental
// solving with unsat-core extraction over the assumptions.
//
// The solver is the decision substrate for the bitvector SMT layer
// (internal/bitblast, internal/solver): bf4's reachability queries and the
// Infer algorithm's model/unsat-core loop both bottom out here. The paper
// uses Z3; this package provides the subset of Z3's functionality those
// algorithms need (check, model, failed assumptions) with identical
// semantics.
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

// lbool is a three-valued boolean.
type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

func boolToLbool(b bool) lbool {
	if b {
		return lTrue
	}
	return lFalse
}

// clause is a disjunction of literals. Learnt clauses carry an activity
// used for clause-database reduction.
type clause struct {
	lits     []Lit
	activity float64
	learnt   bool
	deleted  bool
}

type watcher struct {
	cref    int32 // index into Solver.clauses
	blocker Lit   // quick satisfaction check without touching the clause
}

// Result is the outcome of a Solve call.
type Result int8

const (
	// Unknown means the solver was interrupted by budget exhaustion.
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
	clauses []clause
	watches [][]watcher // indexed by Lit

	assigns  []lbool // indexed by Var
	level    []int32 // decision level of each assigned var
	reason   []int32 // clause ref that implied the var, or -1
	polarity []bool  // phase saving: last assigned sign
	activity []float64
	seen     []bool // scratch for conflict analysis

	trail    []Lit
	trailLim []int32 // trail index at each decision level
	qhead    int

	heap    varHeap
	varInc  float64
	claInc  float64
	okState bool // false once the clause set is unsat at level 0

	model      []lbool
	conflictCs []Lit // failed assumptions (negated), valid after Unsat

	// Budget limits a single Solve call; 0 means unlimited.
	Budget struct {
		Conflicts int64
	}

	numLearnt    int
	maxLearnt    float64
	propagations int64
	conflicts    int64
	decisions    int64
	restarts     int64
	learned      int64
	problemCs    int // cached count of live non-learnt clauses
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
}

// Sub returns the component-wise difference a - b: the work done between
// snapshot b and snapshot a.
func (a Stats) Sub(b Stats) Stats {
	return Stats{
		Conflicts:    a.Conflicts - b.Conflicts,
		Propagations: a.Propagations - b.Propagations,
		Decisions:    a.Decisions - b.Decisions,
		Restarts:     a.Restarts - b.Restarts,
		Learned:      a.Learned - b.Learned,
	}
}

// Add returns the component-wise sum a + b.
func (a Stats) Add(b Stats) Stats {
	return Stats{
		Conflicts:    a.Conflicts + b.Conflicts,
		Propagations: a.Propagations + b.Propagations,
		Decisions:    a.Decisions + b.Decisions,
		Restarts:     a.Restarts + b.Restarts,
		Learned:      a.Learned + b.Learned,
	}
}

// StatsSnapshot returns the current cumulative search statistics.
func (s *Solver) StatsSnapshot() Stats {
	return Stats{
		Conflicts:    s.conflicts,
		Propagations: s.propagations,
		Decisions:    s.decisions,
		Restarts:     s.restarts,
		Learned:      s.learned,
	}
}

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
		s.claInc = 1
		s.okState = true
		s.maxLearnt = 1000
		s.heap.activity = &s.activity
	}
}

// NumVars returns the number of variables created so far.
func (s *Solver) NumVars() int { return len(s.assigns) }

// NumClauses returns the number of live problem (non-learnt) clauses.
// The count is maintained incrementally on attach/delete, so per-check
// CNF-growth snapshots are O(1) instead of a walk over the clause
// database. Inprocess shrinks it by the clauses level-0 facts satisfy.
func (s *Solver) NumClauses() int { return s.problemCs }

// Conflicts returns the cumulative number of conflicts across Solve calls.
func (s *Solver) Conflicts() int64 { return s.conflicts }

// Propagations returns the cumulative number of unit propagations.
func (s *Solver) Propagations() int64 { return s.propagations }

// Decisions returns the cumulative number of branching decisions.
func (s *Solver) Decisions() int64 { return s.decisions }

// Restarts returns the cumulative number of restarts across Solve calls.
func (s *Solver) Restarts() int64 { return s.restarts }

// Learned returns the cumulative number of learnt clauses.
func (s *Solver) Learned() int64 { return s.learned }

// NewVar creates a fresh variable and returns it.
func (s *Solver) NewVar() Var {
	s.init()
	v := Var(len(s.assigns))
	s.assigns = append(s.assigns, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, -1)
	s.polarity = append(s.polarity, true) // default phase: false (sign=true)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.heap.insert(v)
	return v
}

// SetPhase sets the saved phase of v: the value the next decision on v
// tries first, until search overwrites it (phase saving). Fresh variables
// start false.
func (s *Solver) SetPhase(v Var, phase bool) {
	s.ensureVar(v)
	s.polarity[v] = !phase
}

// Clone returns a deep copy of s: clause database with learnt clauses,
// watch lists, level-0 trail, activities, saved phases, heap order and
// statistics. The copy shares no mutable memory with s, so the two may be
// used from different goroutines, and it continues exactly as s would have.
// Clone must be called at decision level 0 (between Solve calls).
func (s *Solver) Clone() *Solver {
	s.init()
	if s.decisionLevel() != 0 {
		panic("sat: Clone above decision level 0")
	}
	c := *s
	// One backing array per kind, carved into full slices: a clone costs a
	// handful of allocations, and the first append to a watch list moves it
	// out of the shared array.
	nLits, nWatches := 0, 0
	for i := range s.clauses {
		nLits += len(s.clauses[i].lits) // nil once deleted
	}
	for _, ws := range s.watches {
		nWatches += len(ws)
	}
	lits := make([]Lit, 0, nLits)
	// Headroom for the clauses the copy will learn: without it the first
	// one reallocates the whole database.
	c.clauses = make([]clause, len(s.clauses), len(s.clauses)+len(s.clauses)/8+64)
	for i, cl := range s.clauses {
		start := len(lits)
		lits = append(lits, cl.lits...)
		cl.lits = lits[start:len(lits):len(lits)]
		c.clauses[i] = cl
	}
	watchers := make([]watcher, 0, nWatches)
	c.watches = make([][]watcher, len(s.watches))
	for i, ws := range s.watches {
		start := len(watchers)
		watchers = append(watchers, ws...)
		c.watches[i] = watchers[start:len(watchers):len(watchers)]
	}
	c.assigns = slices.Clone(s.assigns)
	c.level = slices.Clone(s.level)
	c.reason = slices.Clone(s.reason)
	c.polarity = slices.Clone(s.polarity)
	c.activity = slices.Clone(s.activity)
	c.seen = slices.Clone(s.seen)
	c.trail = slices.Clone(s.trail)
	c.trailLim = nil
	c.model = slices.Clone(s.model)
	c.conflictCs = slices.Clone(s.conflictCs)
	c.heap = varHeap{
		heap:     slices.Clone(s.heap.heap),
		indices:  slices.Clone(s.heap.indices),
		activity: &c.activity,
	}
	return &c
}

func (s *Solver) ensureVar(v Var) {
	for Var(len(s.assigns)) <= v {
		s.NewVar()
	}
}

func (s *Solver) value(l Lit) lbool {
	a := s.assigns[l.Var()]
	if a == lUndef {
		return lUndef
	}
	if l.Sign() {
		if a == lTrue {
			return lFalse
		}
		return lTrue
	}
	return a
}

// AddClause adds a disjunction of literals. It returns false if the clause
// set became trivially unsatisfiable (conflicting unit clauses at level 0).
// AddClause must be called at decision level 0, i.e. not during Solve.
func (s *Solver) AddClause(lits ...Lit) bool {
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
	out := make([]Lit, 0, len(lits))
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
	switch len(out) {
	case 0:
		s.okState = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], -1)
		if s.propagate() != -1 {
			s.okState = false
			return false
		}
		return true
	}
	s.attachClause(clause{lits: out})
	return true
}

func (s *Solver) attachClause(c clause) int {
	cref := len(s.clauses)
	if !c.learnt {
		s.problemCs++
	}
	s.clauses = append(s.clauses, c)
	s.watchClause(cref)
	return cref
}

// watchClause puts clause cref on the watch lists of its first two
// literals.
func (s *Solver) watchClause(cref int) {
	c := &s.clauses[cref]
	l0, l1 := c.lits[0], c.lits[1]
	s.watches[l0.Neg()] = append(s.watches[l0.Neg()], watcher{int32(cref), l1})
	s.watches[l1.Neg()] = append(s.watches[l1.Neg()], watcher{int32(cref), l0})
}

func (s *Solver) uncheckedEnqueue(l Lit, from int32) {
	v := l.Var()
	s.assigns[v] = boolToLbool(!l.Sign())
	s.level[v] = int32(len(s.trailLim))
	s.reason[v] = from
	s.polarity[v] = l.Sign()
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; returns the conflicting clause ref
// or -1 if no conflict.
func (s *Solver) propagate() int {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		ws := s.watches[p]
		n := 0
	nextWatcher:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if s.value(w.blocker) == lTrue {
				ws[n] = w
				n++
				continue
			}
			c := &s.clauses[w.cref]
			s.propagations++
			// Ensure the false literal is lits[1].
			if c.lits[0] == p.Neg() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			first := c.lits[0]
			if first != w.blocker && s.value(first) == lTrue {
				ws[n] = watcher{w.cref, first}
				n++
				continue
			}
			// Look for a new literal to watch.
			for k := 2; k < len(c.lits); k++ {
				if s.value(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					nl := c.lits[1].Neg()
					s.watches[nl] = append(s.watches[nl], watcher{w.cref, first})
					continue nextWatcher
				}
			}
			// Clause is unit or conflicting.
			ws[n] = watcher{w.cref, first}
			n++
			if s.value(first) == lFalse {
				// Conflict: copy remaining watchers and bail.
				for i++; i < len(ws); i++ {
					ws[n] = ws[i]
					n++
				}
				s.watches[p] = ws[:n]
				s.qhead = len(s.trail)
				return int(w.cref)
			}
			s.uncheckedEnqueue(first, w.cref)
		}
		s.watches[p] = ws[:n]
	}
	return -1
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) newDecisionLevel() {
	s.trailLim = append(s.trailLim, int32(len(s.trail)))
}

func (s *Solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= int(bound); i-- {
		v := s.trail[i].Var()
		s.assigns[v] = lUndef
		s.reason[v] = -1
		if !s.heap.inHeap(v) {
			s.heap.insert(v)
		}
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) bumpVar(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if s.heap.inHeap(v) {
		s.heap.decrease(v)
	}
}

func (s *Solver) bumpClause(cref int) {
	c := &s.clauses[cref]
	if !c.learnt {
		return
	}
	c.activity += s.claInc
	if c.activity > 1e20 {
		for i := range s.clauses {
			if s.clauses[i].learnt {
				s.clauses[i].activity *= 1e-20
			}
		}
		s.claInc *= 1e-20
	}
}

// analyze computes the first-UIP learnt clause from the conflicting clause
// and returns it together with the backtrack level.
func (s *Solver) analyze(confl int) ([]Lit, int) {
	learnt := []Lit{LitUndef} // slot 0 reserved for the asserting literal
	counter := 0
	p := LitUndef
	idx := len(s.trail) - 1

	for {
		c := &s.clauses[confl]
		s.bumpClause(confl)
		start := 0
		if p != LitUndef {
			start = 1
		}
		for _, q := range c.lits[start:] {
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if int(s.level[v]) >= s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Select next literal on the trail to resolve on.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		s.seen[v] = false
		counter--
		if counter == 0 {
			break
		}
		confl = int(s.reason[v])
	}
	learnt[0] = p.Neg()

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
	for _, l := range s.clauses[r].lits {
		if l.Var() == q.Var() {
			continue
		}
		if !s.seen[l.Var()] && s.level[l.Var()] != 0 {
			return false
		}
	}
	return true
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
			for _, l := range s.clauses[s.reason[v]].lits {
				if s.level[l.Var()] > 0 {
					s.seen[l.Var()] = true
				}
			}
		}
		s.seen[v] = false
	}
	s.seen[p.Var()] = false
}

// analyzeFinalConfl is like analyzeFinal but starts from a conflicting
// clause instead of a single failed assumption.
func (s *Solver) analyzeFinalConfl(confl int) {
	s.conflictCs = s.conflictCs[:0]
	if s.decisionLevel() == 0 {
		return
	}
	for _, l := range s.clauses[confl].lits {
		if s.level[l.Var()] > 0 {
			s.seen[l.Var()] = true
		}
	}
	for i := len(s.trail) - 1; i >= int(s.trailLim[0]); i-- {
		v := s.trail[i].Var()
		if !s.seen[v] {
			continue
		}
		if s.reason[v] == -1 {
			s.conflictCs = append(s.conflictCs, s.trail[i])
		} else {
			for _, l := range s.clauses[s.reason[v]].lits {
				if s.level[l.Var()] > 0 {
					s.seen[l.Var()] = true
				}
			}
		}
		s.seen[v] = false
	}
}

func (s *Solver) reduceDB() {
	// Collect learnt clause refs sorted by activity; delete the lower half,
	// keeping binary clauses and current reasons.
	type ca struct {
		cref int
		act  float64
	}
	var learnts []ca
	for i := range s.clauses {
		c := &s.clauses[i]
		if c.learnt && !c.deleted && len(c.lits) > 2 {
			learnts = append(learnts, ca{i, c.activity})
		}
	}
	// Insertion sort by activity ascending (learnts lists are modest).
	for i := 1; i < len(learnts); i++ {
		for j := i; j > 0 && learnts[j].act < learnts[j-1].act; j-- {
			learnts[j], learnts[j-1] = learnts[j-1], learnts[j]
		}
	}
	locked := map[int]bool{}
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r >= 0 {
			locked[int(r)] = true
		}
	}
	for _, e := range learnts[:len(learnts)/2] {
		if locked[e.cref] {
			continue
		}
		s.deleteClause(e.cref)
	}
}

func (s *Solver) detachClause(cref int) {
	c := &s.clauses[cref]
	for _, wl := range []Lit{c.lits[0].Neg(), c.lits[1].Neg()} {
		ws := s.watches[wl]
		n := 0
		for _, w := range ws {
			if w.cref != int32(cref) {
				ws[n] = w
				n++
			}
		}
		s.watches[wl] = ws[:n]
	}
}

// deleteClause detaches cref from the watch lists and marks it deleted,
// maintaining the live-clause counters, and releases the literal slice.
func (s *Solver) deleteClause(cref int) {
	s.detachClause(cref)
	s.markDeleted(cref)
}

// markDeleted is deleteClause for a clause that is already detached.
func (s *Solver) markDeleted(cref int) {
	c := &s.clauses[cref]
	c.deleted = true
	c.lits = nil
	if c.learnt {
		s.numLearnt--
	} else {
		s.problemCs--
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

	restartNum := int64(0)
	conflictBudget := s.Budget.Conflicts
	var conflictsThisCall int64

	for {
		restartNum++
		limit := luby(restartNum) * 100
		res := s.search(assumptions, limit, &conflictsThisCall)
		if res != Unknown {
			return res
		}
		if conflictBudget > 0 && conflictsThisCall >= conflictBudget {
			return Unknown
		}
		s.restarts++
		s.cancelUntil(0)
	}
}

// search runs CDCL until a result, a restart limit, or budget exhaustion.
func (s *Solver) search(assumptions []Lit, conflictLimit int64, conflictsThisCall *int64) Result {
	var conflictC int64
	for {
		confl := s.propagate()
		if confl != -1 {
			s.conflicts++
			conflictC++
			*conflictsThisCall++
			if s.decisionLevel() == 0 {
				s.okState = false
				s.conflictCs = s.conflictCs[:0]
				return Unsat
			}
			if s.decisionLevel() <= len(assumptions) {
				// Conflict within the assumption prefix: the assumptions
				// are jointly unsatisfiable.
				s.analyzeFinalConfl(confl)
				return Unsat
			}
			learnt, btLevel := s.analyze(confl)
			s.learned++
			s.cancelUntil(btLevel)
			if len(learnt) == 1 {
				s.cancelUntil(0)
				s.uncheckedEnqueue(learnt[0], -1)
				// Re-establish assumptions on the next loop iterations.
			} else {
				cref := s.attachClause(clause{lits: learnt, learnt: true, activity: s.claInc})
				s.numLearnt++
				s.uncheckedEnqueue(learnt[0], int32(cref))
			}
			s.varInc /= 0.95
			s.claInc /= 0.999
			if float64(s.numLearnt) > s.maxLearnt {
				s.maxLearnt *= 1.3
				s.reduceDB()
			}
			continue
		}
		if conflictC >= conflictLimit {
			return Unknown
		}
		// Establish assumptions one decision level at a time.
		if s.decisionLevel() < len(assumptions) {
			p := assumptions[s.decisionLevel()]
			switch s.value(p) {
			case lTrue:
				s.newDecisionLevel() // dummy level to keep indices aligned
				continue
			case lFalse:
				s.analyzeFinal(p)
				return Unsat
			default:
				s.newDecisionLevel()
				s.uncheckedEnqueue(p, -1)
				continue
			}
		}
		// Pick a branching variable.
		next := s.pickBranch()
		if next == LitUndef {
			// All variables assigned: model found.
			s.model = append(s.model[:0], s.assigns...)
			return Sat
		}
		s.decisions++
		s.newDecisionLevel()
		s.uncheckedEnqueue(next, -1)
	}
}

func (s *Solver) pickBranch() Lit {
	for {
		v, ok := s.heap.removeMin()
		if !ok {
			return LitUndef
		}
		if s.assigns[v] == lUndef {
			return MkLit(v, s.polarity[v])
		}
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

// Okay reports whether the clause database is still possibly satisfiable
// (false after a level-0 conflict).
func (s *Solver) Okay() bool {
	s.init()
	return s.okState
}
