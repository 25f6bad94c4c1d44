package parser

import (
	"regexp"
	"strings"
	"testing"

	"bf4/internal/p4/ast"
	"bf4/internal/p4/token"
	"bf4/internal/progs"
)

// predicateSeeds are the predicates written in the repository's tests,
// docs and examples, and the malformed ones the property tests refuse;
// FuzzParsePredicate adds those of the generated property family.
var predicateSeeds = []string{
	"(hdr.nosuch.field == 1)",
	"(meta.m.guard == 8w7)",
	"(hit(nosuch))",
	"(action_run(classify_0) == not_an_action)",
	"(meta.m.guard)",
	"(meta.m.guard == meta.m.scratch)",
	"(1 == 2)",
	"(hit(nat) -> action_run(nat) != drop_)",
	"(hdr.ethernet.etherType != 16w0xBEEF)",
	"(hit(t0) -> action_run(t0) != drop_)",
	"(hdr.ipv4.isValid() && hit(t) -> action_run(t) != drop_ && standard_metadata.egress_spec != 9w0 && hdr.ipv4.ttl > meta.m.guard)",
	"(a.b == 1 && c.d == 2 || e.f == 3)",
	"(a.b == 1 -> c.d == 2 -> e.f == 3)",
	"(!hit(t) || hit(u))",
	"(miss(t))",
	"(a.b + 1 == 2)",
	"(a.b & 16w0xff == a.b)",
	"(hdr.ipv4.isValid() -> hdr.ipv4.ttl > 0)",
	"(a.b == 0x800)",
	"(a.b == 9w511)",
	"(~x.y - -x.z | 4w1 ^ x.w)",
	"((bit<8>)x ? y[0] : z << 1)",
	"((-a).b == ((bit<8>)c).d -> f(a -> b))",
	// Refused by the parser or the property pass.
	"(a.b == ",
	"(a.b == 1 == 2)",
	"(a.b @ 1)",
	"(hit())",
	"(a.b == 1) trailing",
	"(16w0xzz == a.b)",
	"(oops",
	"meta.m.flag != 1",
	"(a.b == 1) // note",
	"(99999999999999999999w1 == 0w1)",
}

var positioned = regexp.MustCompile(`^\d+:\d+: `)

// FuzzParsePredicate: ParsePredicate never panics, every error it
// returns is positioned, and a predicate it accepts prints (ast.PrintExpr)
// to text that parses back to the same tree.
func FuzzParsePredicate(f *testing.F) {
	for _, s := range predicateSeeds {
		f.Add(s)
	}
	for seed := 1; seed <= 3; seed++ {
		src, props := progs.GeneratePropSwitch(1, seed)
		for _, line := range strings.Split(src+"\n"+props, "\n") {
			if i := strings.Index(line, "@ass"); i >= 0 {
				rest := line[i:]
				if j := strings.Index(rest, ") ("); j >= 0 { // @after(t) (...)
					rest = rest[j+2:]
				} else {
					rest = rest[len("@assert"):]
				}
				f.Add(rest)
			}
		}
	}
	at := token.Pos{Line: 3, Col: 7}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := ParsePredicate(src, at)
		if err != nil {
			if !positioned.MatchString(err.Error()) {
				t.Fatalf("ParsePredicate(%q): error %q carries no line:col", src, err)
			}
			return
		}
		printed := ast.PrintExpr(e)
		e2, err := ParsePredicate(printed, at)
		if err != nil {
			t.Fatalf("ParsePredicate(%q) printed as %q, which does not parse: %v", src, printed, err)
		}
		if shape(e) != shape(e2) {
			t.Fatalf("ParsePredicate(%q) = %s, printed as %q, parses back as %s", src, shape(e), printed, shape(e2))
		}
	})
}
