// Package termgen deterministically generates random smt terms and
// matching environments from a byte string: a well-sorted term DAG plus an
// assignment for every variable it used. Two harnesses read it: FuzzLower
// (internal/smt) checks the bytecode lowering against smt.EvalBool, and
// TestFreshPhasesAreTheCircuitAtItsInputs (internal/bitblast) checks a
// circuit's saved phases against smt.Eval. The same bytes always produce
// the same term and environment, so fuzz findings replay exactly.
package termgen

import (
	"math/big"

	"bf4/internal/smt"
)

// widths is the pool of bitvector widths the generator draws from: small
// widths shake out boundary bugs (carries, sign bits), the larger ones
// exercise the big.Int paths.
var widths = []int{1, 2, 3, 4, 7, 8, 16, 32}

// Gen consumes a byte string to drive generation choices. When the bytes
// run out every remaining choice resolves to its first (leaf) option, so
// generation always terminates.
type Gen struct {
	f    *smt.Factory
	data []byte
	pos  int
	env  smt.Env
	// nvar bounds the variable pool per sort so generated terms share
	// variables (shared leaves are what make DAG memoization observable).
	nvar int
}

// New returns a generator over f driven by data.
func New(f *smt.Factory, data []byte) *Gen {
	return &Gen{f: f, data: data, env: make(smt.Env), nvar: 3}
}

// Env returns the assignment for every variable generated so far. Values
// are drawn from the byte stream, so they are as adversarial as the terms.
func (g *Gen) Env() smt.Env { return g.env }

func (g *Gen) byte() byte {
	if g.pos >= len(g.data) {
		return 0
	}
	b := g.data[g.pos]
	g.pos++
	return b
}

func (g *Gen) pick(n int) int { return int(g.byte()) % n }

// Term generates a top-level term: boolean (like a verification
// condition) or a bitvector of a pooled width.
func (g *Gen) Term() *smt.Term {
	if g.byte()%4 != 0 {
		return g.Bool(g.depth())
	}
	return g.BV(widths[g.pick(len(widths))], g.depth())
}

func (g *Gen) depth() int { return 2 + g.pick(3) }

func (g *Gen) bigFor(w int) *big.Int {
	nb := (w + 7) / 8
	buf := make([]byte, nb)
	for i := range buf {
		buf[i] = g.byte()
	}
	v := new(big.Int).SetBytes(buf)
	m := new(big.Int).Lsh(big.NewInt(1), uint(w))
	return v.Mod(v, m)
}

func (g *Gen) boolVar() *smt.Term {
	name := "b" + string(rune('0'+g.pick(g.nvar)))
	v := g.f.BoolVar(name)
	if _, ok := g.env[name]; !ok {
		g.env.SetBool(name, g.byte()%2 == 1)
	}
	return v
}

func (g *Gen) bvVar(w int) *smt.Term {
	name := "x" + itoa(w) + "_" + string(rune('0'+g.pick(g.nvar)))
	v := g.f.BVVar(name, w)
	if _, ok := g.env[name]; !ok {
		g.env.Set(name, g.bigFor(w))
	}
	return v
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// Bool generates a boolean term of at most the given depth.
func (g *Gen) Bool(depth int) *smt.Term {
	if depth <= 0 {
		switch g.pick(4) {
		case 0:
			return g.f.Bool(g.byte()%2 == 1)
		default:
			return g.boolVar()
		}
	}
	w := widths[g.pick(len(widths))]
	switch g.pick(14) {
	case 0:
		return g.boolVar()
	case 1:
		return g.f.Not(g.Bool(depth - 1))
	case 2:
		return g.f.And(g.Bool(depth-1), g.Bool(depth-1))
	case 3:
		return g.f.Or(g.Bool(depth-1), g.Bool(depth-1))
	case 4:
		return g.f.Xor(g.Bool(depth-1), g.Bool(depth-1))
	case 5:
		return g.f.Implies(g.Bool(depth-1), g.Bool(depth-1))
	case 6:
		return g.f.Ite(g.Bool(depth-1), g.Bool(depth-1), g.Bool(depth-1))
	case 7:
		return g.f.Eq(g.Bool(depth-1), g.Bool(depth-1))
	case 8:
		return g.f.Eq(g.BV(w, depth-1), g.BV(w, depth-1))
	case 9:
		return g.f.Ult(g.BV(w, depth-1), g.BV(w, depth-1))
	case 10:
		return g.f.Ule(g.BV(w, depth-1), g.BV(w, depth-1))
	case 11:
		return g.f.Slt(g.BV(w, depth-1), g.BV(w, depth-1))
	case 12:
		return g.f.Sle(g.BV(w, depth-1), g.BV(w, depth-1))
	default:
		return g.f.Bool(g.byte()%2 == 1)
	}
}

// BV generates a bitvector term of exactly width w and at most the given
// depth.
func (g *Gen) BV(w, depth int) *smt.Term {
	if depth <= 0 {
		switch g.pick(3) {
		case 0:
			return g.f.BVConst(g.bigFor(w), w)
		default:
			return g.bvVar(w)
		}
	}
	switch g.pick(18) {
	case 0:
		return g.bvVar(w)
	case 1:
		return g.f.Add(g.BV(w, depth-1), g.BV(w, depth-1))
	case 2:
		return g.f.Sub(g.BV(w, depth-1), g.BV(w, depth-1))
	case 3:
		return g.f.Neg(g.BV(w, depth-1))
	case 4:
		return g.f.Mul(g.BV(w, depth-1), g.BV(w, depth-1))
	case 5:
		return g.f.BVAnd(g.BV(w, depth-1), g.BV(w, depth-1))
	case 6:
		return g.f.BVOr(g.BV(w, depth-1), g.BV(w, depth-1))
	case 7:
		return g.f.BVXor(g.BV(w, depth-1), g.BV(w, depth-1))
	case 8:
		return g.f.BVNot(g.BV(w, depth-1))
	case 9:
		return g.f.Shl(g.BV(w, depth-1), g.BV(w, depth-1))
	case 10:
		return g.f.Lshr(g.BV(w, depth-1), g.BV(w, depth-1))
	case 11:
		return g.f.Ashr(g.BV(w, depth-1), g.BV(w, depth-1))
	case 12:
		// Concat of a random split of w.
		if w < 2 {
			return g.bvVar(w)
		}
		wb := 1 + g.pick(w-1)
		return g.f.Concat(g.BV(w-wb, depth-1), g.BV(wb, depth-1))
	case 13:
		// Extract w bits out of a wider source.
		ws := w + 1 + g.pick(4)
		lo := g.pick(ws - w + 1)
		return g.f.Extract(g.BV(ws, depth-1), lo+w-1, lo)
	case 14:
		// ZExt from a narrower source.
		if w < 2 {
			return g.f.BVConst(g.bigFor(w), w)
		}
		ws := 1 + g.pick(w-1)
		return g.f.ZExt(g.BV(ws, depth-1), w)
	case 15:
		// SExt from a narrower source.
		if w < 2 {
			return g.f.BVConst(g.bigFor(w), w)
		}
		ws := 1 + g.pick(w-1)
		return g.f.SExt(g.BV(ws, depth-1), w)
	case 16:
		return g.f.Ite(g.Bool(depth-1), g.BV(w, depth-1), g.BV(w, depth-1))
	default:
		return g.f.BVConst(g.bigFor(w), w)
	}
}
