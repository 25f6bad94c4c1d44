package sat

import (
	"math/rand"
	"testing"
)

func random3SAT(seed int64, nVars, nClauses int) [][]Lit {
	rng := rand.New(rand.NewSource(seed))
	cnf := make([][]Lit, nClauses)
	for i := range cnf {
		for j := 0; j < 3; j++ {
			cnf[i] = append(cnf[i], MkLit(Var(rng.Intn(nVars)), rng.Intn(2) == 0))
		}
	}
	return cnf
}

// incrementalRound is one check the way internal/solver issues it: on top
// of a random 3-SAT base (added in round 0), the round's condition — six
// random clauses — is defined under a fresh literal act (the clauses
// act → c, one-sided Tseitin), and Solve assumes act and one more literal.
// The definition stays in the database; later rounds never assume act
// again, so it constrains nothing they ask.
func incrementalRound(s *Solver, round int) Result {
	const nVars = 60
	if round == 0 {
		for _, cl := range random3SAT(13, nVars, 235) {
			s.AddClause(cl...)
		}
	}
	rng := rand.New(rand.NewSource(int64(round)))
	act := Var(nVars + round)
	for k := 0; k < 6; k++ {
		cl := []Lit{MkLit(act, true)}
		for j := 0; j < 2+rng.Intn(2); j++ {
			cl = append(cl, MkLit(Var(rng.Intn(nVars)), rng.Intn(2) == 0))
		}
		s.AddClause(cl...)
	}
	return s.Solve(MkLit(act, false), MkLit(Var(rng.Intn(nVars)), rng.Intn(2) == 0))
}

// pinnedTraces are instances with the search effort the solver spends on
// them, first pinned before its clause store became a flat arena (commit
// a9207a4, the []clause-of-slices representation). Decisions,
// propagations, conflicts, restarts, learnt clauses and cancelled literals
// are a fingerprint of the whole search trace: a change of data layout must
// not move any of them, a change of heuristics has to re-pin them on
// purpose.
//
// The first two were re-pinned when learnt-clause reduction went: every
// learnt clause now stays, which costs pigeonhole-7 2.4× the propagations
// (1 574 658 before) and 3sat-seed11 1.6× (2 915 190 before, in 10 % fewer
// conflicts). Only such synthetic refutations learn enough clauses for
// reduction to fire; no verifier workload ever did. The fourth was re-pinned
// when activation scopes went (357 conflicts, 25 393 propagations, 412
// decisions, 326 learnt, 8 923 cancelled before): a round used to end by
// asserting ¬act and deleting every clause that satisfied, so no later
// round saw its condition; now the definition stays, act is free in later
// rounds, and the same forty verdicts come at 292 conflicts.
//
// All four were re-pinned when search became justification directed: a
// decision is a variable of a root clause that no true literal satisfies
// yet, or one a conflict has bumped, and a Solve answers Sat once every
// root clause has a true literal. The verdicts stand. Before, as
// conflicts / propagations / decisions / restarts / learnt / cancelled:
// pigeonhole-7 6 238 / 3 742 358 / 7 513 / 29 / 6 237 / 118 850;
// 3sat-seed11 12 089 / 4 722 296 / 14 504 / 52 / 12 088 / 595 711;
// 3sat-seed5 878 / 108 609 / 1 133 / 6 / 878 / 39 043; the forty rounds
// 292 / 22 329 / 381 / 0 / 264 / 8 508. The satisfiable seed5 instance
// takes six times the conflicts; the others take as many or fewer.
var pinnedTraces = []struct {
	name string
	run  func(s *Solver) Result
	res  Result
	want Stats
}{
	{"pigeonhole-7", func(s *Solver) Result { pigeonhole(s, 8, 7); return s.Solve() }, Unsat,
		Stats{Conflicts: 3346, Propagations: 1076903, Decisions: 4002, Restarts: 16, Learned: 3345, CancelledLiterals: 56308}},
	{"3sat-seed11-200x850", func(s *Solver) Result {
		for _, cl := range random3SAT(11, 200, 850) {
			s.AddClause(cl...)
		}
		return s.Solve()
	}, Unsat, Stats{Conflicts: 11706, Propagations: 4290553, Decisions: 13958, Restarts: 49, Learned: 11705, CancelledLiterals: 584727}},
	{"3sat-seed5-180x765", func(s *Solver) Result {
		for _, cl := range random3SAT(5, 180, 765) {
			s.AddClause(cl...)
		}
		return s.Solve()
	}, Sat, Stats{Conflicts: 5321, Propagations: 1133399, Decisions: 6592, Restarts: 28, Learned: 5321, CancelledLiterals: 253785}},
	{"40-assumption-rounds", func(s *Solver) Result {
		var last Result
		for round := 0; round < 40; round++ {
			last = incrementalRound(s, round)
		}
		return last
	}, Unsat, Stats{Conflicts: 374, Propagations: 29288, Decisions: 437, Restarts: 0, Learned: 343, CancelledLiterals: 10333}},
}

// TestSearchTracePinned runs every trace on a solver from New and on the
// two kinds of recycled solver (solverOrigins): the pinned effort is spent
// on each, to the last propagation.
func TestSearchTracePinned(t *testing.T) {
	for _, tc := range pinnedTraces {
		t.Run(tc.name, func(t *testing.T) {
			for _, origin := range solverOrigins {
				t.Run(origin.name, func(t *testing.T) {
					s := origin.make()
					if got := tc.run(s); got != tc.res {
						t.Errorf("result %v, pinned %v", got, tc.res)
					}
					if got := s.StatsSnapshot(); got != tc.want {
						t.Errorf("search effort %+v, pinned %+v", got, tc.want)
					}
					checkInvariants(t, s)
				})
			}
		})
	}
}

// dirtySolver returns a solver at the end of a life that has touched every
// piece of state a next one could inherit: nVars variables under clauses
// solved to a model, a failed-assumption core, learnt clauses and bumped
// activities, saved phases, a level-0 trail that has been propagated
// (qhead) — and finally a refutation at level 0, which clears okState.
func dirtySolver(nVars int) *Solver {
	s := New()
	for _, cl := range random3SAT(3, nVars, 3*nVars) {
		s.AddClause(cl...)
	}
	if s.Solve() != Sat || s.Solve(MkLit(0, false), MkLit(0, true)) != Unsat || s.Conflicts() == 0 {
		panic("dirtySolver: no model, no core or nothing learnt")
	}
	// Pigeons on variables of their own: the refutation ends at level 0.
	holes := Var(s.NumVars())
	for p := Var(0); p < 5; p++ {
		s.AddClause(MkLit(holes+4*p, false), MkLit(holes+4*p+1, false), MkLit(holes+4*p+2, false), MkLit(holes+4*p+3, false))
		for q := Var(0); q < p; q++ {
			for h := Var(0); h < 4; h++ {
				s.AddClause(MkLit(holes+4*p+h, true), MkLit(holes+4*q+h, true))
			}
		}
	}
	if s.Solve() != Unsat || s.okState || s.qhead == 0 {
		panic("dirtySolver: the pigeons fit")
	}
	return s
}

// solverOrigins are the ways a caller comes by an empty solver: New, Reset
// of a used one, and CopyFrom an empty one into a used one. Everything the
// package promises of the first holds of the other two.
var solverOrigins = []struct {
	name string
	make func() *Solver
}{
	{"new", New},
	{"reset", func() *Solver { return dirtySolver(300).Reset() }},
	{"copied-over", func() *Solver { return dirtySolver(300).CopyFrom(New()) }},
}
