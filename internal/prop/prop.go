// Package prop implements bf4's user-facing properties: boolean
// @assert/@assume predicates over header fields, validity bits, standard
// metadata and table hit/action state, written either as P4 source
// comments or in standalone .props spec files. A predicate is a P4-16
// expression, parsed by internal/p4/parser (ParsePredicate, which adds
// `->`) with file:line:col positions; this package types it against the
// lowered program's variables and table instances and builds its term in
// one pass (hit(table), miss(table), action_run(table) == a,
// <header>.isValid()), then splices guarded BugAssertFail nodes into the
// IR through ir.Options.Instrument — after which the whole existing
// pipeline (dataflow pre-discharge, wp, solver adjudication, Infer,
// Fixes, the runtime shim) handles user properties exactly like built-in
// checks.
package prop

import (
	"fmt"
	"sort"
	"strings"

	"bf4/internal/p4/ast"
	"bf4/internal/p4/parser"
	"bf4/internal/p4/token"
)

// Pos is a source position inside a property's origin (a P4 file or a
// .props spec file). Line and Col are 1-based.
type Pos struct {
	File string
	Line int
	Col  int
}

func (p Pos) String() string {
	if p.File == "" {
		return fmt.Sprintf("%d:%d", p.Line, p.Col)
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

// Kind discriminates the two property flavors.
type Kind int

const (
	// Assert properties must hold on every execution reaching their
	// anchor; violations become BugAssertFail nodes the solver confirms
	// with a packet witness or refutes.
	Assert Kind = iota
	// Assume properties constrain the input space: executions violating
	// them are routed to an unreachable terminal and excluded from every
	// downstream check.
	Assume
)

func (k Kind) String() string {
	if k == Assume {
		return "assume"
	}
	return "assert"
}

// Property is one parsed @assert/@assume annotation.
type Property struct {
	Kind Kind
	Expr ast.Expr
	// After anchors the property right behind every apply of the named
	// table (`@assert @after(t) (...)`); empty means the default anchor
	// (end of ingress for asserts, ingress entry for assumes).
	After string
	// Pos is the declaration site (P4 source comment or .props line).
	Pos Pos
	// Text is the predicate as written, for diagnostics.
	Text string
	// FromSource marks properties extracted from P4 source comments;
	// their Pos is a valid position in the analyzed program file.
	FromSource bool
}

// Origin renders the declaration site as file:line:col.
func (p *Property) Origin() string { return p.Pos.String() }

// Describe renders the property header for messages, e.g.
// "@assert @after(fwd) (x == 1)".
func (p *Property) Describe() string {
	var b strings.Builder
	b.WriteString("@")
	b.WriteString(p.Kind.String())
	if p.After != "" {
		fmt.Fprintf(&b, " @after(%s)", p.After)
	}
	fmt.Fprintf(&b, "(%s)", p.Text)
	return b.String()
}

// Sort orders properties by declaration site (file, line, col) — the
// canonical processing order, independent of how the inputs were
// gathered (source scan vs spec files).
func Sort(props []*Property) {
	sort.SliceStable(props, func(i, j int) bool {
		a, b := props[i].Pos, props[j].Pos
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})
}

// parseAnnotation parses one "@assert.../@assume..." annotation whose
// '@' sits at pos. Grammar:
//
//	'@assert' | '@assume'  [ '@after' '(' table ')' ]  '(' predicate ')'
//
// The parenthesized predicate must close the annotation: trailing text
// is an error, so a stray comment after a property is caught rather
// than silently ignored.
func parseAnnotation(text string, pos Pos) (*Property, error) {
	pr := &Property{Pos: pos}
	rest := text
	col := pos.Col
	eat := func(prefix string) bool {
		if strings.HasPrefix(rest, prefix) {
			rest = rest[len(prefix):]
			col += len(prefix)
			return true
		}
		return false
	}
	skipSpace := func() {
		for len(rest) > 0 && (rest[0] == ' ' || rest[0] == '\t') {
			rest = rest[1:]
			col++
		}
	}
	switch {
	case eat("@assert"):
		pr.Kind = Assert
	case eat("@assume"):
		pr.Kind = Assume
	default:
		return nil, fmt.Errorf("%s: expected @assert or @assume", pos)
	}
	skipSpace()
	if eat("@after") {
		skipSpace()
		if !eat("(") {
			return nil, fmt.Errorf("%s:%d:%d: expected '(' after @after", pos.File, pos.Line, col)
		}
		skipSpace()
		end := strings.IndexByte(rest, ')')
		if end < 0 {
			return nil, fmt.Errorf("%s:%d:%d: unclosed @after(...)", pos.File, pos.Line, col)
		}
		pr.After = strings.TrimSpace(rest[:end])
		if pr.After == "" || strings.ContainsAny(pr.After, " \t") {
			return nil, fmt.Errorf("%s:%d:%d: @after wants a single table name", pos.File, pos.Line, col)
		}
		rest = rest[end+1:]
		col += end + 1
		skipSpace()
	}
	if len(rest) == 0 || rest[0] != '(' {
		return nil, fmt.Errorf("%s:%d:%d: expected parenthesized predicate", pos.File, pos.Line, col)
	}
	expr, err := parser.ParsePredicate(rest, token.Pos{Line: pos.Line, Col: col})
	if err != nil {
		return nil, parser.PrefixFile(pos.File, err)
	}
	pr.Expr = expr
	pr.Text = strings.TrimSpace(trimOuterParens(strings.TrimSpace(rest)))
	return pr, nil
}

// trimOuterParens strips one pair of outer parentheses when they match
// each other ("(a) && (b)" keeps its parens, "(a && b)" loses them).
func trimOuterParens(s string) string {
	if len(s) < 2 || s[0] != '(' || s[len(s)-1] != ')' {
		return s
	}
	depth := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
			if depth == 0 && i != len(s)-1 {
				return s
			}
		}
	}
	return s[1 : len(s)-1]
}

// ExtractSource scans P4 source for property annotations in line
// comments (`// @assert(...)`, `// @assume(...)`), returning them with
// their true file positions. One property per comment; a malformed
// annotation is a hard error (silently ignoring a typo'd property would
// un-verify it).
func ExtractSource(file, src string) ([]*Property, error) {
	var out []*Property
	for i, line := range strings.Split(src, "\n") {
		line = strings.TrimRight(line, "\r")
		ci := strings.Index(line, "//")
		if ci < 0 {
			continue
		}
		comment := line[ci+2:]
		ai := strings.Index(comment, "@assert")
		if j := strings.Index(comment, "@assume"); j >= 0 && (ai < 0 || j < ai) {
			ai = j
		}
		if ai < 0 {
			continue
		}
		col := ci + 2 + ai + 1 // 1-based column of '@'
		pr, err := parseAnnotation(comment[ai:], Pos{File: file, Line: i + 1, Col: col})
		if err != nil {
			return nil, err
		}
		pr.FromSource = true
		out = append(out, pr)
	}
	return out, nil
}

// ParseSpecFile parses a standalone .props spec file: one property per
// line, '#' or '//' line comments, blank lines ignored.
func ParseSpecFile(file string, data []byte) ([]*Property, error) {
	var out []*Property
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimRight(line, "\r")
		trimmed := strings.TrimLeft(line, " \t")
		if trimmed == "" || strings.HasPrefix(trimmed, "#") || strings.HasPrefix(trimmed, "//") {
			continue
		}
		col := len(line) - len(trimmed) + 1
		pr, err := parseAnnotation(trimmed, Pos{File: file, Line: i + 1, Col: col})
		if err != nil {
			return nil, err
		}
		out = append(out, pr)
	}
	return out, nil
}
