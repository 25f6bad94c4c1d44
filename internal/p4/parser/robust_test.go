package parser

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"bf4/internal/p4/token"
)

// TestParserNeverPanicsOnRandomInput: arbitrary byte soup must produce
// errors, never panics.
func TestParserNeverPanicsOnRandomInput(t *testing.T) {
	prop := func(data []byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("panic on input %q: %v", data, r)
				ok = false
			}
		}()
		Parse(string(data))
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestParserNeverPanicsOnMutatedSource: random mutations of a valid
// program (deletions, swaps, truncations) must not panic either — this
// exercises deep error-recovery paths plain noise never reaches.
func TestParserNeverPanicsOnMutatedSource(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	base := miniNAT
	for iter := 0; iter < 400; iter++ {
		b := []byte(base)
		switch iter % 4 {
		case 0: // truncate
			if len(b) > 1 {
				b = b[:rng.Intn(len(b))]
			}
		case 1: // delete a span
			if len(b) > 20 {
				i := rng.Intn(len(b) - 10)
				j := i + rng.Intn(10)
				b = append(b[:i], b[j:]...)
			}
		case 2: // random byte flips
			for k := 0; k < 5; k++ {
				b[rng.Intn(len(b))] = byte(rng.Intn(128))
			}
		case 3: // duplicate a span
			i := rng.Intn(len(b) / 2)
			j := i + rng.Intn(len(b)/2)
			b = append(b[:j], append([]byte(string(b[i:j])), b[j:]...)...)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("iter %d: panic: %v\ninput:\n%s", iter, r, b)
				}
			}()
			Parse(string(b))
		}()
	}
}

// TestDeepNestingBounded: nesting past maxDepth — parentheses, operator
// and member chains, unary operators, ternaries, implications, blocks and
// else-if chains — ends in one positioned error, never in a stack
// overflow of the parser or of a later pass; the same shapes well inside
// the bound parse.
func TestDeepNestingBounded(t *testing.T) {
	exprs := map[string]func(n int) string{
		"parens":  func(n int) string { return strings.Repeat("(", n) + "x" + strings.Repeat(")", n) },
		"plus":    func(n int) string { return "x" + strings.Repeat(" + x", n) },
		"members": func(n int) string { return "x" + strings.Repeat(".f", n) },
		"calls":   func(n int) string { return "f" + strings.Repeat("()", n) },
		"unary":   func(n int) string { return strings.Repeat("!", n) + "x" },
		"ternary": func(n int) string { return strings.Repeat("a ? b : ", n) + "c" },
		"arrows":  func(n int) string { return strings.Repeat("a -> ", n) + "b" },
	}
	programs := map[string]func(n int) string{
		"blocks": func(n int) string { return strings.Repeat("{ ", n) + strings.Repeat("} ", n) },
		"ifs": func(n int) string {
			return strings.Repeat("if (x == 8w0) { ", n) + "y = 8w1;" + strings.Repeat(" }", n)
		},
		"elseif": func(n int) string { return strings.Repeat("if (x == 8w0) { } else ", n) + "{ }" },
	}
	program := func(body string) string {
		return "control c(inout bit<8> x, inout bit<8> y) { apply { " + body + " } }"
	}
	tooDeep := regexp.MustCompile(fmt.Sprintf(`^\d+:\d+: nesting deeper than %d$`, maxDepth))
	for name, gen := range exprs {
		if _, err := ParsePredicate(gen(maxDepth/4), token.Pos{Line: 1, Col: 1}); err != nil {
			t.Errorf("%s at depth %d: %v", name, maxDepth/4, err)
		}
		for _, n := range []int{maxDepth + 1, 1_000_000} {
			if _, err := ParsePredicate(gen(n), token.Pos{Line: 1, Col: 1}); err == nil || !tooDeep.MatchString(err.Error()) {
				t.Errorf("%s at depth %d: got %v, want one positioned nesting error", name, n, err)
			}
		}
	}
	for name, gen := range programs {
		if _, err := Parse(program(gen(maxDepth / 4))); err != nil {
			t.Errorf("%s at depth %d: %v", name, maxDepth/4, err)
		}
		if _, err := Parse(program(gen(maxDepth + 1))); err == nil || !tooDeep.MatchString(err.Error()) {
			t.Errorf("%s at depth %d: got %v, want one positioned nesting error", name, maxDepth+1, err)
		}
	}
}

// TestSwitchCaseWithoutLabelTerminates: a switch whose case is neither an
// identifier nor default (here a call, the switch having no expression)
// ends in positioned errors. The case loop once appended a case and two
// errors per iteration without consuming a token, forever.
func TestSwitchCaseWithoutLabelTerminates(t *testing.T) {
	const src = `control C() {
    apply {
        switch{x.apply(); }
    }
}
`
	done := make(chan error, 1)
	go func() {
		_, err := Parse(src)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("parsed without error")
		}
		for _, line := range strings.Split(err.Error(), "\n") {
			if !regexp.MustCompile(`^\d+:\d+: `).MatchString(line) {
				t.Fatalf("error without a position: %q", line)
			}
		}
	case <-time.After(10 * time.Second):
		// A stalled loop allocates without bound: stop the process, not
		// just the test.
		panic("parser: the switch case loop does not terminate")
	}
}
