package smt

// ProgramLen returns p's instruction count, for the external tests.
func ProgramLen(p *Program) int { return len(p.code) }
