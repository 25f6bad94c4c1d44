package ir

import (
	"testing"

	"bf4/internal/p4/ast"
	"bf4/internal/p4/parser"
	"bf4/internal/p4/types"
	"bf4/internal/progs"
)

// FuzzFrontend runs P4 source through the whole front end: parse, print →
// re-parse → print (the two prints must agree), type check and lowering.
// Any stage may refuse its input with errors; a panic or a hang fails.
// The seeds are the hand-written corpus.
func FuzzFrontend(f *testing.F) {
	for _, p := range progs.All() {
		if p.Name != "switch" {
			f.Add(p.Source)
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := parser.Parse(src)
		if err != nil {
			return
		}
		text := ast.Print(prog)
		again, err := parser.Parse(text)
		if err != nil {
			t.Fatalf("the printed program does not parse: %v\n%s", err, text)
		}
		if got := ast.Print(again); got != text {
			t.Fatalf("print → parse → print changed the text:\n--- first print\n%s--- second print\n%s", text, got)
		}
		// A refusal is fine; a panic fails.
		if info, err := types.Check(prog); err == nil {
			_, _ = Build(prog, info, DefaultOptions())
		}
	})
}
