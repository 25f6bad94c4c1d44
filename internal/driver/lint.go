// The front half of bf4 lint's three modes. Plain lint lowers the program
// and runs analysis.Lint on the IR; Props and Taint compile it with Run's
// compile and decide their checks with core.FindBugsWith, Run's decision
// loop. All three report a program that does not compile the way a
// compiler does: a file:line:col: message line per diagnostic.
package driver

import (
	"errors"

	"bf4/internal/analysis"
	"bf4/internal/core"
	"bf4/internal/obs"
	"bf4/internal/p4/parser"
)

// Lint is bf4 lint's plain mode: src is parsed, type-checked and lowered
// under cfg.IR — no passification, wp or slice — and analysis.Lint runs on
// the IR.
func Lint(name, src string, cfg Config) (*analysis.Report, error) {
	prog, info, err := core.Frontend(src, cfg.Obs, cfg.Trace)
	if err != nil {
		return nil, lintError(name, err)
	}
	p, err := core.Lower(prog, info, cfg.IR, cfg.Obs, cfg.Trace)
	if err != nil {
		return nil, lintError(name, err)
	}
	return &analysis.Report{Diags: analysis.Lint(p, prog)}, nil
}

// lintCompile is the front half of Props and Taint: compile with no fixes,
// under a "compile" span.
func lintCompile(name, src string, cfg Config) (*core.Pipeline, error) {
	sp, done := obs.StartPhase(cfg.Obs, cfg.Trace, "compile")
	pl, err := compile(src, nil, cfg, sp)
	done()
	if err != nil {
		return nil, lintError(name, err)
	}
	return pl, nil
}

// lintError renders a compile failure the way every bf4 lint mode prints
// it: each diagnostic as <file>:line:col: message, <file> being the file
// the position is in. The stage core names (parse, typecheck, lower) is
// dropped and the program's diagnostics are given name; a property's
// already carry the file it was declared in (propError).
func lintError(name string, err error) error {
	var pe propError
	if errors.As(err, &pe) {
		return pe.error
	}
	if stage := errors.Unwrap(err); stage != nil {
		err = stage
	}
	return parser.PrefixFile(name, err)
}

// propError is a property that does not type-check against the program.
// Its positions are prop.Pos, which name the property's own file: the
// .props file, or the program for a source comment.
type propError struct{ error }
