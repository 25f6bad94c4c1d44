package core

import "bf4/internal/solver"

// newTestSolver returns a fresh solver over a pipeline's factory.
func newTestSolver(pl *Pipeline) *solver.Solver {
	return solver.New()
}
