package smt

import (
	"fmt"
	"math/big"
)

// This file is the one definition of the term language: the operator
// table (name, arity, indices, sort rule, constructor), the checked entry
// Apply that everything building terms from data goes through, and evalOp,
// the big.Int semantics that both Eval and the constructors' constant
// folds run.

// variadic marks an operator taking one or more arguments.
const variadic = -1

// opInfo is one row of the operator table.
type opInfo struct {
	// name is the SMT-LIB name Serialize, String and Parse use. Operators
	// with indices are written ((_ name i…) arg).
	name string
	// arity is the exact argument count, or variadic.
	arity int
	// nidx is the number of integer indices, as SMT-LIB writes them:
	// extract hi lo, zero_extend/sign_extend the number of added bits.
	nidx int
	// sort returns the result sort of a well-sorted application, or why
	// it is ill-sorted. Nil for leaves, which are not applications.
	sort func(args []*Term, idx []int) (Sort, error)
	// build is the simplifying constructor; it may assume sort accepted
	// the arguments.
	build func(f *Factory, args []*Term, idx []int) *Term
}

// opTable is indexed by Op. It is filled by init rather than by its
// declaration because the constructors reach back into it (through
// Term.String in their panic messages).
var opTable [NumOps]opInfo

// opByName maps SMT-LIB names to applicable operators, for Parse.
var opByName = map[string]Op{}

func init() {
	un := func(c func(*Factory, *Term) *Term) func(*Factory, []*Term, []int) *Term {
		return func(f *Factory, a []*Term, _ []int) *Term { return c(f, a[0]) }
	}
	bin := func(c func(*Factory, *Term, *Term) *Term) func(*Factory, []*Term, []int) *Term {
		return func(f *Factory, a []*Term, _ []int) *Term { return c(f, a[0], a[1]) }
	}
	nary := func(c func(*Factory, ...*Term) *Term) func(*Factory, []*Term, []int) *Term {
		return func(f *Factory, a []*Term, _ []int) *Term { return c(f, a...) }
	}
	opTable = [NumOps]opInfo{
		OpTrue:  {name: "true"},
		OpFalse: {name: "false"},
		OpVar:   {name: "var"},
		OpConst: {name: "const"},

		OpNot: {"not", 1, 0, sortBools, un((*Factory).Not)},
		OpAnd: {"and", variadic, 0, sortBools, nary((*Factory).And)},
		OpOr:  {"or", variadic, 0, sortBools, nary((*Factory).Or)},
		OpXor: {"xor", 2, 0, sortBools, bin((*Factory).Xor)},
		OpIte: {"ite", 3, 0, sortIte, func(f *Factory, a []*Term, _ []int) *Term { return f.Ite(a[0], a[1], a[2]) }},
		OpEq:  {"=", 2, 0, sortEq, bin((*Factory).Eq)},

		OpUlt: {"bvult", 2, 0, sortCompare, bin((*Factory).Ult)},
		OpUle: {"bvule", 2, 0, sortCompare, bin((*Factory).Ule)},
		OpSlt: {"bvslt", 2, 0, sortCompare, bin((*Factory).Slt)},
		OpSle: {"bvsle", 2, 0, sortCompare, bin((*Factory).Sle)},

		OpAdd:   {"bvadd", 2, 0, sortSameBV, bin((*Factory).Add)},
		OpSub:   {"bvsub", 2, 0, sortSameBV, bin((*Factory).Sub)},
		OpNeg:   {"bvneg", 1, 0, sortSameBV, un((*Factory).Neg)},
		OpMul:   {"bvmul", 2, 0, sortSameBV, bin((*Factory).Mul)},
		OpBVAnd: {"bvand", 2, 0, sortSameBV, bin((*Factory).BVAnd)},
		OpBVOr:  {"bvor", 2, 0, sortSameBV, bin((*Factory).BVOr)},
		OpBVXor: {"bvxor", 2, 0, sortSameBV, bin((*Factory).BVXor)},
		OpBVNot: {"bvnot", 1, 0, sortSameBV, un((*Factory).BVNot)},
		OpShl:   {"bvshl", 2, 0, sortSameBV, bin((*Factory).Shl)},
		OpLshr:  {"bvlshr", 2, 0, sortSameBV, bin((*Factory).Lshr)},
		OpAshr:  {"bvashr", 2, 0, sortSameBV, bin((*Factory).Ashr)},

		OpConcat: {"concat", 2, 0, sortConcat, bin((*Factory).Concat)},
		OpExtract: {"extract", 1, 2, sortExtract, func(f *Factory, a []*Term, idx []int) *Term {
			return f.Extract(a[0], idx[0], idx[1])
		}},
		OpZExt: {"zero_extend", 1, 1, sortExtend, func(f *Factory, a []*Term, idx []int) *Term {
			return f.ZExt(a[0], a[0].sort.Width+idx[0])
		}},
		OpSExt: {"sign_extend", 1, 1, sortExtend, func(f *Factory, a []*Term, idx []int) *Term {
			return f.SExt(a[0], a[0].sort.Width+idx[0])
		}},
	}
	for op := range opTable {
		if opTable[op].build != nil {
			opByName[opTable[op].name] = Op(op)
		}
	}
}

// String returns the operator's SMT-LIB name; it is empty for the reserved
// slot and for numbers that are not operators.
func (o Op) String() string {
	if o >= NumOps {
		return ""
	}
	return opTable[o].name
}

// sameWidth returns the common width of bitvector arguments.
func sameWidth(args []*Term) (int, error) {
	for i, a := range args {
		if a.sort.IsBool() {
			return 0, fmt.Errorf("argument %d is Bool, want a bitvector", i)
		}
		if a.sort != args[0].sort {
			return 0, fmt.Errorf("argument widths differ: %d vs %d", args[0].sort.Width, a.sort.Width)
		}
	}
	return args[0].sort.Width, nil
}

func sortBools(args []*Term, _ []int) (Sort, error) {
	for i, a := range args {
		if !a.sort.IsBool() {
			return Sort{}, fmt.Errorf("argument %d is %v, want Bool", i, a.sort)
		}
	}
	return BoolSort, nil
}

func sortIte(args []*Term, _ []int) (Sort, error) {
	if !args[0].sort.IsBool() {
		return Sort{}, fmt.Errorf("condition is %v, want Bool", args[0].sort)
	}
	if args[1].sort != args[2].sort {
		return Sort{}, fmt.Errorf("branch sorts differ: %v vs %v", args[1].sort, args[2].sort)
	}
	return args[1].sort, nil
}

func sortEq(args []*Term, _ []int) (Sort, error) {
	if args[0].sort != args[1].sort {
		return Sort{}, fmt.Errorf("argument sorts differ: %v vs %v", args[0].sort, args[1].sort)
	}
	return BoolSort, nil
}

func sortCompare(args []*Term, _ []int) (Sort, error) {
	_, err := sameWidth(args)
	return BoolSort, err
}

func sortSameBV(args []*Term, _ []int) (Sort, error) {
	w, err := sameWidth(args)
	return Sort{Width: w}, err
}

func sortConcat(args []*Term, _ []int) (Sort, error) {
	if args[0].sort.IsBool() || args[1].sort.IsBool() {
		return Sort{}, fmt.Errorf("arguments are %v and %v, want bitvectors", args[0].sort, args[1].sort)
	}
	return Sort{Width: args[0].sort.Width + args[1].sort.Width}, nil
}

func sortExtract(args []*Term, idx []int) (Sort, error) {
	hi, lo := idx[0], idx[1]
	if args[0].sort.IsBool() {
		return Sort{}, fmt.Errorf("argument is Bool, want a bitvector")
	}
	if lo < 0 || hi < lo || hi >= args[0].sort.Width {
		return Sort{}, fmt.Errorf("bits [%d:%d] out of range for width %d", hi, lo, args[0].sort.Width)
	}
	return Sort{Width: hi - lo + 1}, nil
}

func sortExtend(args []*Term, idx []int) (Sort, error) {
	if args[0].sort.IsBool() {
		return Sort{}, fmt.Errorf("argument is Bool, want a bitvector")
	}
	if idx[0] < 0 {
		return Sort{}, fmt.Errorf("negative extension %d", idx[0])
	}
	return Sort{Width: args[0].sort.Width + idx[0]}, nil
}

// Apply builds the application of op to args — with the integer indices
// of extract, zero_extend and sign_extend as SMT-LIB writes them — through
// the simplifying constructor, after checking arity and sorts against the
// operator table. It is the entry for terms built from data (Parse,
// Substitute, the rewriter): an ill-formed application is an error here,
// where the typed constructors (Add, Ite, …) panic.
func (f *Factory) Apply(op Op, args []*Term, idx ...int) (*Term, error) {
	if op >= NumOps || opTable[op].build == nil {
		return nil, fmt.Errorf("smt: operator %d (%v) is not applicable", op, op)
	}
	row := &opTable[op]
	switch {
	case len(idx) != row.nidx:
		return nil, fmt.Errorf("smt: %s takes %d indices, got %d", row.name, row.nidx, len(idx))
	case row.arity == variadic && len(args) == 0:
		return nil, fmt.Errorf("smt: %s needs at least one argument", row.name)
	case row.arity != variadic && len(args) != row.arity:
		return nil, fmt.Errorf("smt: %s takes %d arguments, got %d", row.name, row.arity, len(args))
	}
	s, err := row.sort(args, idx)
	if err != nil {
		return nil, fmt.Errorf("smt: %s: %w", row.name, err)
	}
	t := row.build(f, args, idx)
	if t.sort != s {
		panic(fmt.Sprintf("smt: %s: constructor built %v where the operator table says %v", row.name, t.sort, s))
	}
	return t, nil
}

// Indices returns the term's integer indices in Apply's order: hi, lo for
// extract, the number of added bits for zero_extend and sign_extend, none
// otherwise. The caller must not modify the slice.
func (t *Term) Indices() []int { return t.idx[:opTable[t.op].nidx] }

// MaxWidth bounds the bitvector widths accepted from outside the program:
// literals and results in Parse, and, as p4runtime.MaxValueBits, integers
// on the wire.
const MaxWidth = 4096

var (
	bigZero = new(big.Int)
	bigOne  = big.NewInt(1)
)

// Mask returns 2^w - 1, the all-ones value of width w.
func Mask(w int) *big.Int {
	m := new(big.Int).Lsh(bigOne, uint(w))
	return m.Sub(m, bigOne)
}

func truth(b bool) *big.Int {
	if b {
		return bigOne
	}
	return bigZero
}

// toSigned interprets v (in [0,2^w)) as a w-bit two's complement value.
func toSigned(v *big.Int, w int) *big.Int {
	if v.Bit(w-1) == 0 {
		return v
	}
	return new(big.Int).Sub(v, new(big.Int).Lsh(bigOne, uint(w)))
}

// normalize reduces v modulo 2^w into [0, 2^w).
func normalize(v *big.Int, w int) *big.Int {
	if v.Sign() >= 0 && v.BitLen() <= w {
		return v
	}
	m := new(big.Int).Lsh(bigOne, uint(w))
	return m.Mod(v, m) // Mod is Euclidean: the result is never negative
}

// evalOp is the concrete semantics of every operator: the value of op
// applied to argument values x, y, z (as many as the operator takes; and
// and or fold it over their arguments pairwise). Booleans are 0/1,
// width-n vectors lie in [0, 2^n). w is the result width, wx the width of
// x, lo the low index of an extract. Neither the arguments nor the result
// may be mutated: the result can be an argument or a shared constant.
//
// Eval runs it at every node and the constructors run it to fold constant
// arguments, so a term and its folded form cannot disagree. Program.Eval
// (lower.go) is the one other concrete semantics, kept apart as the
// allocation-free uint64 kernel and held to this one by FuzzLower.
func evalOp(op Op, w, wx, lo int, x, y, z *big.Int) *big.Int {
	switch op {
	case OpNot:
		return truth(x.Sign() == 0)
	case OpAnd:
		return truth(x.Sign() != 0 && y.Sign() != 0)
	case OpOr:
		return truth(x.Sign() != 0 || y.Sign() != 0)
	case OpXor:
		return truth(x.Sign() != y.Sign())
	case OpIte:
		if x.Sign() != 0 {
			return y
		}
		return z
	case OpEq:
		return truth(x.Cmp(y) == 0)
	case OpUlt:
		return truth(x.Cmp(y) < 0)
	case OpUle:
		return truth(x.Cmp(y) <= 0)
	case OpSlt:
		return truth(toSigned(x, wx).Cmp(toSigned(y, wx)) < 0)
	case OpSle:
		return truth(toSigned(x, wx).Cmp(toSigned(y, wx)) <= 0)
	case OpAdd:
		return normalize(new(big.Int).Add(x, y), w)
	case OpSub:
		return normalize(new(big.Int).Sub(x, y), w)
	case OpNeg:
		return normalize(new(big.Int).Neg(x), w)
	case OpMul:
		return normalize(new(big.Int).Mul(x, y), w)
	case OpBVAnd:
		return new(big.Int).And(x, y)
	case OpBVOr:
		return new(big.Int).Or(x, y)
	case OpBVXor:
		return new(big.Int).Xor(x, y)
	case OpBVNot:
		return new(big.Int).Xor(x, Mask(w))
	case OpShl:
		if !y.IsUint64() || y.Uint64() >= uint64(w) {
			return bigZero
		}
		return normalize(new(big.Int).Lsh(x, uint(y.Uint64())), w)
	case OpLshr:
		if !y.IsUint64() || y.Uint64() >= uint64(w) {
			return bigZero
		}
		return new(big.Int).Rsh(x, uint(y.Uint64()))
	case OpAshr:
		sh := uint(w)
		if y.IsUint64() && y.Uint64() < uint64(w) {
			sh = uint(y.Uint64())
		}
		return normalize(new(big.Int).Rsh(toSigned(x, w), sh), w)
	case OpConcat:
		v := new(big.Int).Lsh(x, uint(w-wx))
		return v.Or(v, y)
	case OpExtract:
		v := new(big.Int).Rsh(x, uint(lo))
		return v.And(v, Mask(w))
	case OpZExt:
		return x
	case OpSExt:
		return normalize(toSigned(x, wx), w)
	default:
		panic(fmt.Sprintf("smt: no semantics for operator %d (%v)", op, op))
	}
}
