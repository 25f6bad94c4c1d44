package parser

import (
	"strings"
	"testing"
)

// TestLexicalErrorsSurface: lexer diagnostics (formerly dropped on the
// floor) must come back from Parse, positioned and listed before any
// parse errors they caused.
func TestLexicalErrorsSurface(t *testing.T) {
	_, err := Parse("header h_t { bit<8> f; } /* never closed")
	if err == nil {
		t.Fatal("unterminated block comment parsed without error")
	}
	if !strings.Contains(err.Error(), "unterminated block comment") {
		t.Fatalf("error %q does not mention the unterminated comment", err)
	}
	if !strings.Contains(err.Error(), "1:26") {
		t.Fatalf("error %q lacks the line:col of the comment opener", err)
	}
}

func TestLexicalErrorBeforeParseErrors(t *testing.T) {
	// The unterminated string swallows the rest of the line, which also
	// breaks the surrounding declaration; the root cause must be first.
	src := "const bit<8> x = \"oops;\nheader h_t { }"
	_, err := Parse(src)
	if err == nil {
		t.Fatal("unterminated string parsed without error")
	}
	if !strings.Contains(err.Error(), "unterminated string") {
		t.Fatalf("first error %q should be the lexical root cause", err)
	}
}

// TestParseErrorsCarryLineCol: syntax errors point at the offending
// token, not 0:0 and not the start of the file.
func TestParseErrorsCarryLineCol(t *testing.T) {
	src := "header h_t {\n  bit<8> f\n}\n"
	_, err := Parse(src) // missing ';' after the field
	if err == nil {
		t.Fatal("missing semicolon parsed without error")
	}
	if !strings.Contains(err.Error(), "3:") {
		t.Fatalf("error %q does not point at line 3 where the '}' was found", err)
	}
}

// TestParseFilePrefixesFilename: a file's parse diagnostics, through
// PrefixFile, read file:line:col so editors and CI annotations can jump
// to them.
func TestParseFilePrefixesFilename(t *testing.T) {
	_, err := Parse("header h_t { bit<8> f }\n")
	err = PrefixFile("broken.p4", err)
	if err == nil {
		t.Fatal("expected a parse error")
	}
	for _, line := range strings.Split(err.Error(), "\n") {
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, "broken.p4:") {
			t.Fatalf("diagnostic line %q not prefixed with the filename", line)
		}
	}
}

// TestPrefixFilePassthrough: nil errors and empty filenames are left
// alone.
func TestPrefixFilePassthrough(t *testing.T) {
	if err := PrefixFile("f.p4", nil); err != nil {
		t.Fatalf("PrefixFile(nil) = %v, want nil", err)
	}
	_, err := Parse("header h_t { bit<8> f }")
	if got := PrefixFile("", err); got != err {
		t.Fatalf("empty filename must not rewrap: got %v", got)
	}
}
