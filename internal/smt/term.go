// Package smt provides a hash-consed term representation for quantifier-free
// bitvector logic (QF_BV) with booleans — the fragment bf4's verification
// conditions live in. Terms are immutable DAG nodes created through a
// Factory, which guarantees structural sharing: syntactically equal terms
// are pointer-equal. This sharing is what keeps weakest-precondition
// formulas over merged control-flow graphs polynomial in program size
// (Flanagan–Saxe-style compact verification conditions).
//
// The factory performs light, evaluation-preserving simplification at
// construction time (constant folding, identities, complement detection).
// Heavier reasoning is delegated to internal/bitblast + internal/sat via
// the internal/solver façade.
package smt

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"slices"
	"strings"
	"sync"
)

// Sort identifies a term's type: Bool (Width == 0) or a bitvector of the
// given positive width.
type Sort struct {
	Width int
}

// BoolSort is the sort of boolean terms.
var BoolSort = Sort{Width: 0}

// BV returns the bitvector sort of width w (w >= 1).
func BV(w int) Sort {
	if w < 1 {
		panic(fmt.Sprintf("smt: invalid bitvector width %d", w))
	}
	return Sort{Width: w}
}

// IsBool reports whether the sort is boolean.
func (s Sort) IsBool() bool { return s.Width == 0 }

func (s Sort) String() string {
	if s.IsBool() {
		return "Bool"
	}
	return fmt.Sprintf("BV%d", s.Width)
}

// Op enumerates term constructors.
type Op uint8

// Term operators; op.go's operator table gives each one's name, arity and
// sort rule. The numbering is frozen: Factory.key and contentHash mix the
// number into the canonical argument order, and with it into CNF shape,
// search traces and witness bytes.
const (
	OpTrue Op = iota
	OpFalse
	OpVar // boolean or bitvector variable, identified by name
	OpNot
	OpAnd
	OpOr
	OpXor // boolean xor
	_     // reserved: implication is never interned (Implies builds an Or)
	OpIte // bitvector-sorted only: a Bool ite is built as Or(And, And)
	OpEq  // bitvector arguments only: a Bool = is built as Not(Xor)

	OpConst // bitvector constant
	OpUlt
	OpUle
	OpSlt
	OpSle
	OpAdd
	OpSub
	OpNeg
	OpMul
	OpBVAnd
	OpBVOr
	OpBVXor
	OpBVNot
	OpShl
	OpLshr
	OpAshr
	OpConcat
	OpExtract
	OpZExt
	OpSExt

	// NumOps is one past the last operator.
	NumOps
)

// Term is an immutable, hash-consed term. Terms produced by the same
// Factory are pointer-comparable: a == b iff they are structurally equal.
type Term struct {
	id   uint32
	hash uint64 // deterministic content hash, for canonical argument order
	op   Op
	sort Sort
	args []*Term
	val  *big.Int // OpConst only, normalized to [0, 2^w)
	name string   // OpVar only
	idx  [2]int   // integer indices (see Indices): extract hi lo, zero_extend/sign_extend k
}

// Op returns the term's constructor.
func (t *Term) Op() Op { return t.op }

// Sort returns the term's sort.
func (t *Term) Sort() Sort { return t.sort }

// Args returns the argument terms. The caller must not modify the slice.
func (t *Term) Args() []*Term { return t.args }

// Arg returns the i-th argument.
func (t *Term) Arg(i int) *Term { return t.args[i] }

// Name returns the variable name (OpVar only).
func (t *Term) Name() string { return t.name }

// Const returns the constant value (OpConst only). Callers must not
// mutate the returned value.
func (t *Term) Const() *big.Int { return t.val }

// ExtractBounds returns (hi, lo) for OpExtract terms.
func (t *Term) ExtractBounds() (hi, lo int) { return t.idx[0], t.idx[1] }

// IsTrue reports whether t is the constant true.
func (t *Term) IsTrue() bool { return t.op == OpTrue }

// IsFalse reports whether t is the constant false.
func (t *Term) IsFalse() bool { return t.op == OpFalse }

// IsConst reports whether t is a bitvector constant.
func (t *Term) IsConst() bool { return t.op == OpConst }

// String renders the term as an S-expression. Intended for debugging and
// error messages, not serialization (the DAG is expanded to a tree).
func (t *Term) String() string {
	var b strings.Builder
	t.write(&b, true, 0)
	return b.String()
}

// Vars appends to dst all distinct variables occurring in t and returns
// the extended slice. Variables already present in dst are not appended
// again, so the slice stays duplicate-free when accumulating over many
// terms. Callers that accumulate across a large shared DAG should prefer
// VarsSeen with a persistent seen-set: it skips whole subgraphs visited
// by earlier calls instead of re-walking them.
func (t *Term) Vars(dst []*Term) []*Term {
	seen := make(map[uint32]bool, 64)
	for _, v := range dst {
		seen[v.id] = true
	}
	return t.VarsSeen(dst, seen)
}

// VarsSeen is Vars with a caller-owned seen-set keyed by the terms'
// factory-unique ids. Every visited node is recorded in seen, so repeated
// calls over terms sharing DAG structure walk each distinct node exactly
// once in total — without it, N asserts over one shared formula walk the
// DAG N times (a quadratic blowup on wide conditions; see
// BenchmarkVarsAccumulate).
func (t *Term) VarsSeen(dst []*Term, seen map[uint32]bool) []*Term {
	var walk func(*Term)
	walk = func(u *Term) {
		if seen[u.id] {
			return
		}
		seen[u.id] = true
		if u.op == OpVar {
			dst = append(dst, u)
			return
		}
		for _, a := range u.args {
			walk(a)
		}
	}
	walk(t)
	return dst
}

// Size returns the number of distinct DAG nodes reachable from t.
func (t *Term) Size() int {
	seen := map[*Term]bool{}
	var walk func(*Term)
	walk = func(u *Term) {
		if seen[u] {
			return
		}
		seen[u] = true
		for _, a := range u.args {
			walk(a)
		}
	}
	walk(t)
	return len(seen)
}

// Factory creates and hash-conses terms. The zero value is not usable;
// call NewFactory. A Factory is safe for concurrent use: interning is
// serialized by a mutex, and canonical argument ordering is derived from
// a deterministic content hash rather than interning order, so the
// structure of every term (and hence every rendering of it) is identical
// no matter how goroutines interleave their term construction.
type Factory struct {
	mu     sync.Mutex
	table  map[string]*Term
	nextID uint32
	true_  *Term
	false_ *Term
}

// NewFactory returns an empty term factory with interned true/false.
func NewFactory() *Factory {
	f := &Factory{table: make(map[string]*Term)}
	f.true_ = f.intern(&Term{op: OpTrue, sort: BoolSort})
	f.false_ = f.intern(&Term{op: OpFalse, sort: BoolSort})
	return f
}

func (f *Factory) key(t *Term) string {
	var b strings.Builder
	b.Grow(16 + 4*len(t.args))
	b.WriteByte(byte(t.op))
	var tmp [8]byte
	binary.LittleEndian.PutUint32(tmp[:4], uint32(t.sort.Width))
	b.Write(tmp[:4])
	switch t.op {
	case OpVar:
		b.WriteString(t.name)
	case OpConst:
		b.WriteString(t.val.Text(62))
	case OpExtract:
		binary.LittleEndian.PutUint32(tmp[:4], uint32(t.idx[1]))
		binary.LittleEndian.PutUint32(tmp[4:], uint32(t.idx[0]))
		b.Write(tmp[:])
	}
	for _, a := range t.args {
		binary.LittleEndian.PutUint32(tmp[:4], a.id)
		b.Write(tmp[:4])
	}
	return b.String()
}

func (f *Factory) intern(t *Term) *Term {
	k := f.key(t)
	t.hash = contentHash(t)
	f.mu.Lock()
	defer f.mu.Unlock()
	if existing, ok := f.table[k]; ok {
		return existing
	}
	t.id = f.nextID
	f.nextID++
	f.table[k] = t
	return t
}

// contentHash computes a deterministic 64-bit hash of a term's structure
// (FNV-1a over op, sort, payload and argument hashes). Unlike the intern
// id, it does not depend on creation order, which makes it a stable basis
// for canonical argument ordering under concurrent construction.
func contentHash(t *Term) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(t.op))
	mix(uint64(t.sort.Width))
	switch t.op {
	case OpVar:
		for i := 0; i < len(t.name); i++ {
			h ^= uint64(t.name[i])
			h *= prime64
		}
	case OpConst:
		for _, b := range t.val.Bytes() {
			h ^= uint64(b)
			h *= prime64
		}
	case OpExtract:
		mix(uint64(t.idx[1]))
		mix(uint64(t.idx[0]))
	}
	for _, a := range t.args {
		mix(a.hash)
	}
	return h
}

// termCmp is a deterministic total order over terms from one factory:
// primarily by content hash, with a full structural comparison breaking
// the (astronomically rare) hash ties. It is creation-order independent,
// which keeps canonical forms byte-identical across runs and worker
// counts.
func termCmp(a, b *Term) int {
	if a == b {
		return 0
	}
	switch {
	case a.hash < b.hash:
		return -1
	case a.hash > b.hash:
		return 1
	}
	return structCmp(a, b)
}

func structCmp(a, b *Term) int {
	if a == b {
		return 0
	}
	switch {
	case a.op != b.op:
		if a.op < b.op {
			return -1
		}
		return 1
	case a.sort.Width != b.sort.Width:
		if a.sort.Width < b.sort.Width {
			return -1
		}
		return 1
	case a.op == OpVar:
		return strings.Compare(a.name, b.name)
	case a.op == OpConst:
		return a.val.Cmp(b.val)
	case a.op == OpExtract && a.idx[1] != b.idx[1]:
		if a.idx[1] < b.idx[1] {
			return -1
		}
		return 1
	case a.op == OpExtract && a.idx[0] != b.idx[0]:
		if a.idx[0] < b.idx[0] {
			return -1
		}
		return 1
	case len(a.args) != len(b.args):
		if len(a.args) < len(b.args) {
			return -1
		}
		return 1
	}
	for i := range a.args {
		if c := structCmp(a.args[i], b.args[i]); c != 0 {
			return c
		}
	}
	return 0
}

func termLess(a, b *Term) bool { return termCmp(a, b) < 0 }

// True returns the boolean constant true.
func (f *Factory) True() *Term { return f.true_ }

// False returns the boolean constant false.
func (f *Factory) False() *Term { return f.false_ }

// Bool returns the boolean constant for b.
func (f *Factory) Bool(b bool) *Term {
	if b {
		return f.true_
	}
	return f.false_
}

// BoolVar returns the boolean variable named name.
func (f *Factory) BoolVar(name string) *Term {
	return f.intern(&Term{op: OpVar, sort: BoolSort, name: name})
}

// BVVar returns the bitvector variable named name of width w.
func (f *Factory) BVVar(name string, w int) *Term {
	return f.intern(&Term{op: OpVar, sort: BV(w), name: name})
}

// Var returns a variable of the given sort.
func (f *Factory) Var(name string, s Sort) *Term {
	if s.IsBool() {
		return f.BoolVar(name)
	}
	return f.BVVar(name, s.Width)
}

// BVConst returns the bitvector constant v (mod 2^w) of width w.
func (f *Factory) BVConst(v *big.Int, w int) *Term {
	s := BV(w)
	nv := normalize(v, w)
	if nv == v {
		nv = new(big.Int).Set(v) // the caller keeps v
	}
	return f.intern(&Term{op: OpConst, sort: s, val: nv})
}

// BVConst64 returns the bitvector constant v (mod 2^w) of width w.
func (f *Factory) BVConst64(v int64, w int) *Term {
	return f.BVConst(big.NewInt(v), w)
}

// Not returns the boolean negation of a.
func (f *Factory) Not(a *Term) *Term {
	mustBool(a)
	switch {
	case a.IsTrue():
		return f.false_
	case a.IsFalse():
		return f.true_
	case a.op == OpNot:
		return a.args[0]
	}
	return f.intern(&Term{op: OpNot, sort: BoolSort, args: []*Term{a}})
}

// And returns the conjunction of args, simplifying constants, duplicates
// and complementary pairs. And() is true.
func (f *Factory) And(args ...*Term) *Term {
	return f.nary(OpAnd, args)
}

// Or returns the disjunction of args. Or() is false.
func (f *Factory) Or(args ...*Term) *Term {
	return f.nary(OpOr, args)
}

func (f *Factory) nary(op Op, args []*Term) *Term {
	neutral, absorbing := f.true_, f.false_
	if op == OpOr {
		neutral, absorbing = f.false_, f.true_
	}
	n := 0
	for _, a := range args {
		n += max(1, len(a.args))
	}
	flat := make([]*Term, 0, n)
	for _, a := range args {
		mustBool(a)
		// Flatten one level of the same operator.
		sub := []*Term{a}
		if a.op == op {
			sub = a.args
		}
		for _, s := range sub {
			if s == absorbing {
				return absorbing
			}
			if s != neutral {
				flat = append(flat, s)
			}
		}
	}
	// In canonical order duplicates are neighbours and a complement is a
	// binary search away: no per-call set (a path condition grows by one
	// conjunct at a time, and its own arguments arrive sorted).
	slices.SortFunc(flat, termCmp)
	flat = slices.Compact(flat)
	// Complement detection: x and not(x) together collapse.
	for _, a := range flat {
		if a.op == OpNot {
			if _, found := slices.BinarySearchFunc(flat, a.args[0], termCmp); found {
				return absorbing
			}
		}
	}
	switch len(flat) {
	case 0:
		return neutral
	case 1:
		return flat[0]
	}
	return f.intern(&Term{op: op, sort: BoolSort, args: flat})
}

// Xor returns the boolean exclusive-or of a and b.
func (f *Factory) Xor(a, b *Term) *Term {
	mustBool(a)
	mustBool(b)
	switch {
	case a == b:
		return f.false_
	case a.IsFalse():
		return b
	case b.IsFalse():
		return a
	case a.IsTrue():
		return f.Not(b)
	case b.IsTrue():
		return f.Not(a)
	}
	if termLess(b, a) {
		a, b = b, a
	}
	return f.intern(&Term{op: OpXor, sort: BoolSort, args: []*Term{a, b}})
}

// Implies returns a -> b.
func (f *Factory) Implies(a, b *Term) *Term {
	return f.Or(f.Not(a), b)
}

// Iff returns a <-> b.
func (f *Factory) Iff(a, b *Term) *Term {
	return f.Not(f.Xor(a, b))
}

// Ite returns if cond then a else b. The branches must share a sort; the
// result has that sort (Bool or BV).
func (f *Factory) Ite(cond, a, b *Term) *Term {
	mustBool(cond)
	if a.sort != b.sort {
		panic(fmt.Sprintf("smt: ite branch sorts differ: %v vs %v", a.sort, b.sort))
	}
	switch {
	case cond.IsTrue():
		return a
	case cond.IsFalse():
		return b
	case a == b:
		return a
	}
	if a.sort.IsBool() {
		// Encode boolean ite structurally for better downstream handling.
		return f.Or(f.And(cond, a), f.And(f.Not(cond), b))
	}
	// ite(u == c, c, c') over width-1 vectors with distinct constants is
	// just u (the isValid()-as-key encoding; simplifying it keeps inferred
	// assertions readable).
	if a.sort.Width == 1 && a.IsConst() && b.IsConst() && a.val.Cmp(b.val) != 0 && cond.op == OpEq {
		x, y := cond.args[0], cond.args[1]
		if y.IsConst() && !x.IsConst() && y.val.Cmp(a.val) == 0 && x.sort == a.sort {
			return x
		}
		if x.IsConst() && !y.IsConst() && x.val.Cmp(a.val) == 0 && y.sort == a.sort {
			return y
		}
	}
	return f.intern(&Term{op: OpIte, sort: a.sort, args: []*Term{cond, a, b}})
}

// Eq returns a = b for same-sorted terms.
func (f *Factory) Eq(a, b *Term) *Term {
	if a.sort != b.sort {
		panic(fmt.Sprintf("smt: eq sorts differ: %v vs %v", a.sort, b.sort))
	}
	if a == b {
		return f.true_
	}
	if a.sort.IsBool() {
		return f.Iff(a, b)
	}
	if c := f.fold(OpEq, BoolSort, 0, a, b); c != nil {
		return c
	}
	if termLess(b, a) {
		a, b = b, a
	}
	return f.intern(&Term{op: OpEq, sort: BoolSort, args: []*Term{a, b}})
}

// Distinct returns a != b.
func (f *Factory) Distinct(a, b *Term) *Term { return f.Not(f.Eq(a, b)) }

func mustBool(t *Term) {
	if !t.sort.IsBool() {
		panic(fmt.Sprintf("smt: expected Bool, got %v in %s", t.sort, t))
	}
}

func mustBV(t *Term) int {
	if t.sort.IsBool() {
		panic(fmt.Sprintf("smt: expected bitvector, got Bool in %s", t))
	}
	return t.sort.Width
}

func mustSameWidth(a, b *Term) int {
	wa, wb := mustBV(a), mustBV(b)
	if wa != wb {
		panic(fmt.Sprintf("smt: width mismatch %d vs %d (%s vs %s)", wa, wb, a, b))
	}
	return wa
}

// fold returns the constant that op denotes over constant bitvector
// arguments a and (for binary operators) b, or nil when one of them is
// not a constant. s is the result sort, lo an extract's low index.
func (f *Factory) fold(op Op, s Sort, lo int, a, b *Term) *Term {
	if !a.IsConst() || (b != nil && !b.IsConst()) {
		return nil
	}
	var y *big.Int
	if b != nil {
		y = b.val
	}
	v := evalOp(op, s.Width, a.sort.Width, lo, a.val, y, nil)
	if s.IsBool() {
		return f.Bool(v.Sign() != 0)
	}
	return f.intern(&Term{op: OpConst, sort: s, val: v})
}

// binBV builds a binary operator over two vectors of one width, with a
// result of that width: folded when both are constant, in canonical
// argument order when commutative.
func (f *Factory) binBV(op Op, a, b *Term, comm bool) *Term {
	s := BV(mustSameWidth(a, b))
	if c := f.fold(op, s, 0, a, b); c != nil {
		return c
	}
	if comm && termLess(b, a) {
		a, b = b, a
	}
	return f.intern(&Term{op: op, sort: s, args: []*Term{a, b}})
}

// unBV builds a unary operator over a vector, folded when it is constant.
// k is the index zero_extend and sign_extend carry.
func (f *Factory) unBV(op Op, s Sort, k int, a *Term) *Term {
	if c := f.fold(op, s, 0, a, nil); c != nil {
		return c
	}
	return f.intern(&Term{op: op, sort: s, args: []*Term{a}, idx: [2]int{k}})
}

// isZero, isOne and isOnes recognize the constants the identities below
// key on.
func isZero(t *Term) bool { return t.IsConst() && t.val.Sign() == 0 }
func isOne(t *Term) bool  { return t.IsConst() && t.val.Cmp(bigOne) == 0 }
func isOnes(t *Term) bool {
	return t.IsConst() && t.val.BitLen() == t.sort.Width && t.val.Cmp(Mask(t.sort.Width)) == 0
}

// Add returns a + b (mod 2^w).
func (f *Factory) Add(a, b *Term) *Term {
	if isZero(a) {
		return b
	}
	if isZero(b) {
		return a
	}
	return f.binBV(OpAdd, a, b, true)
}

// Sub returns a - b (mod 2^w).
func (f *Factory) Sub(a, b *Term) *Term {
	if isZero(b) {
		return a
	}
	if a == b {
		return f.BVConst64(0, a.sort.Width)
	}
	return f.binBV(OpSub, a, b, false)
}

// Neg returns -a (mod 2^w).
func (f *Factory) Neg(a *Term) *Term {
	return f.unBV(OpNeg, BV(mustBV(a)), 0, a)
}

// Mul returns a * b (mod 2^w).
func (f *Factory) Mul(a, b *Term) *Term {
	switch {
	case isZero(a):
		return a
	case isOne(a):
		return b
	case isZero(b):
		return b
	case isOne(b):
		return a
	}
	return f.binBV(OpMul, a, b, true)
}

// BVAnd returns the bitwise conjunction of a and b.
func (f *Factory) BVAnd(a, b *Term) *Term {
	mustSameWidth(a, b)
	switch {
	case a == b, isZero(a), isOnes(b):
		return a
	case isOnes(a), isZero(b):
		return b
	}
	return f.binBV(OpBVAnd, a, b, true)
}

// BVOr returns the bitwise disjunction of a and b.
func (f *Factory) BVOr(a, b *Term) *Term {
	mustSameWidth(a, b)
	switch {
	case a == b, isOnes(a), isZero(b):
		return a
	case isZero(a), isOnes(b):
		return b
	}
	return f.binBV(OpBVOr, a, b, true)
}

// BVXor returns the bitwise exclusive-or of a and b.
func (f *Factory) BVXor(a, b *Term) *Term {
	if w := mustSameWidth(a, b); a == b {
		return f.BVConst64(0, w)
	}
	return f.binBV(OpBVXor, a, b, true)
}

// BVNot returns the bitwise complement of a.
func (f *Factory) BVNot(a *Term) *Term {
	if a.op == OpBVNot {
		return a.args[0]
	}
	return f.unBV(OpBVNot, BV(mustBV(a)), 0, a)
}

// Shl returns a << b (filling with zeros, shift amount unsigned).
func (f *Factory) Shl(a, b *Term) *Term { return f.shift(OpShl, a, b) }

// Lshr returns a >> b (logical, zero-filling).
func (f *Factory) Lshr(a, b *Term) *Term { return f.shift(OpLshr, a, b) }

// Ashr returns a >> b (arithmetic, sign-filling).
func (f *Factory) Ashr(a, b *Term) *Term { return f.shift(OpAshr, a, b) }

func (f *Factory) shift(op Op, a, b *Term) *Term {
	if isZero(b) {
		return a
	}
	return f.binBV(op, a, b, false)
}

// Ult returns the unsigned comparison a < b.
func (f *Factory) Ult(a, b *Term) *Term { return f.compare(OpUlt, a, b, false) }

// Ule returns the unsigned comparison a <= b.
func (f *Factory) Ule(a, b *Term) *Term { return f.compare(OpUle, a, b, true) }

// Ugt returns a > b (unsigned).
func (f *Factory) Ugt(a, b *Term) *Term { return f.Ult(b, a) }

// Uge returns a >= b (unsigned).
func (f *Factory) Uge(a, b *Term) *Term { return f.Ule(b, a) }

// Slt returns the signed comparison a < b.
func (f *Factory) Slt(a, b *Term) *Term { return f.compare(OpSlt, a, b, false) }

// Sle returns the signed comparison a <= b.
func (f *Factory) Sle(a, b *Term) *Term { return f.compare(OpSle, a, b, true) }

// compare builds an order comparison; reflexive is its value on a == b.
func (f *Factory) compare(op Op, a, b *Term, reflexive bool) *Term {
	mustSameWidth(a, b)
	if a == b {
		return f.Bool(reflexive)
	}
	if c := f.fold(op, BoolSort, 0, a, b); c != nil {
		return c
	}
	return f.intern(&Term{op: op, sort: BoolSort, args: []*Term{a, b}})
}

// Concat returns the concatenation a ++ b, with a providing the
// high-order bits.
func (f *Factory) Concat(a, b *Term) *Term {
	s := BV(mustBV(a) + mustBV(b))
	if c := f.fold(OpConcat, s, 0, a, b); c != nil {
		return c
	}
	return f.intern(&Term{op: OpConcat, sort: s, args: []*Term{a, b}})
}

// Extract returns bits hi..lo of a (inclusive), a bitvector of width
// hi-lo+1.
func (f *Factory) Extract(a *Term, hi, lo int) *Term {
	w := mustBV(a)
	if lo < 0 || hi < lo || hi >= w {
		panic(fmt.Sprintf("smt: extract [%d:%d] out of range for width %d", hi, lo, w))
	}
	if lo == 0 && hi == w-1 {
		return a
	}
	if c := f.fold(OpExtract, BV(hi-lo+1), lo, a, nil); c != nil {
		return c
	}
	if a.op == OpExtract {
		return f.Extract(a.args[0], a.idx[1]+hi, a.idx[1]+lo)
	}
	return f.intern(&Term{op: OpExtract, sort: BV(hi - lo + 1), args: []*Term{a}, idx: [2]int{hi, lo}})
}

// ZExt zero-extends a to width w.
func (f *Factory) ZExt(a *Term, w int) *Term { return f.extend(OpZExt, a, w) }

// SExt sign-extends a to width w.
func (f *Factory) SExt(a *Term, w int) *Term { return f.extend(OpSExt, a, w) }

func (f *Factory) extend(op Op, a *Term, w int) *Term {
	wa := mustBV(a)
	if w == wa {
		return a
	}
	if w < wa {
		panic(fmt.Sprintf("smt: %v to narrower width %d < %d", op, w, wa))
	}
	return f.unBV(op, BV(w), w-wa, a)
}

// Resize zero-extends or truncates a to width w, the semantics of P4
// implicit casts between unsigned widths.
func (f *Factory) Resize(a *Term, w int) *Term {
	wa := mustBV(a)
	switch {
	case w == wa:
		return a
	case w > wa:
		return f.ZExt(a, w)
	default:
		return f.Extract(a, w-1, 0)
	}
}
