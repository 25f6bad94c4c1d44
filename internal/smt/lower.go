package smt

import (
	"errors"
	"fmt"
)

// This file lowers boolean QF_BV terms into flat bytecode programs over
// uint64 registers — the shim's fast-path evaluator (paper §4.4 at
// controller speed). A Program is compiled once per forbidden condition
// and then evaluated per update with zero allocation: the caller vends a
// scratch register file (typically from a sync.Pool), writes the update's
// concrete values into the slot registers, and runs Eval.
//
// Lowering is total on the fragment the shim actually sees — widths ≤ 64
// with every variable either bindable from the update or absent (absent
// variables evaluate to zero, matching Eval's unbound-variable
// convention). Terms outside the fragment (a width > 64 anywhere in the
// DAG, or a variable the caller refuses to assign a slot) fail to lower
// and stay on the smt.EvalBool slow path.

// ErrWideTerm reports a bitvector wider than 64 bits somewhere in the
// term, which the uint64 register machine cannot represent.
var ErrWideTerm = errors.New("smt: lower: bitvector width exceeds 64")

// SlotFunc assigns register slots to variables during lowering. It
// returns the register index holding the variable's value at Eval time.
// The caller must store values pre-normalized to the variable's sort
// (booleans as 0/1, width-w vectors reduced mod 2^w) — lowering emits no
// re-normalization for slot reads, mirroring how Eval normalizes at the
// env boundary. Returning slot -1 with a nil error declares the variable
// unbound: it lowers to the constant 0 (Eval's unbound convention).
// Returning an error aborts lowering (e.g. a shadow-table variable that
// only the slow path can resolve).
type SlotFunc func(name string, s Sort) (slot int, err error)

// pOp enumerates fast-path instructions.
type pOp uint8

const (
	pConst   pOp = iota // dst = imm
	pNot                // dst = a ^ 1            (bool)
	pAnd                // dst = a & b            (bool)
	pOr                 // dst = a | b            (bool)
	pXor                // dst = a ^ b            (bool)
	pEq                 // dst = (a == b)         (values pre-normalized)
	pIte                // dst = regs[imm]!=0 ? a : b
	pUlt                // dst = (a < b)  unsigned
	pUle                // dst = (a <= b) unsigned
	pSlt                // dst = (a < b)  signed at width w
	pSle                // dst = (a <= b) signed at width w
	pAdd                // dst = (a + b) & mask
	pSub                // dst = (a - b) & mask
	pNeg                // dst = (-a) & mask
	pMul                // dst = (a * b) & mask
	pBVAnd              // dst = a & b
	pBVOr               // dst = a | b
	pBVXor              // dst = a ^ b
	pBVNot              // dst = a ^ mask
	pShl                // dst = b>=w ? 0 : (a << b) & mask
	pLshr               // dst = b>=w ? 0 : a >> b
	pAshr               // dst = signext(a,w) >> min(b,w), & mask
	pConcat             // dst = (a << imm) | b   (imm = width of b)
	pExtract            // dst = (a >> imm) & mask (imm = lo)
	pSExt               // dst = signext(a, imm) & mask (imm = source width)
)

// pinst is one register-machine instruction. mask is the result width's
// 2^w-1 (all-ones at w=64); w carries the width the op semantics need
// (result width for shifts, argument width for signed compares).
type pinst struct {
	op   pOp
	dst  uint32
	a, b uint32
	imm  uint64
	mask uint64
	w    uint8
}

// Program is a compiled boolean term: straight-line code over a uint64
// register file. Immutable after LowerBool; safe for concurrent Eval with
// distinct register files.
type Program struct {
	code  []pinst
	out   uint32
	nRegs int
}

// NumRegs returns the register-file size Eval requires.
func (p *Program) NumRegs() int { return p.nRegs }

// Eval runs the program over regs (len >= NumRegs). Slot registers must
// already hold the current update's normalized values; temp registers
// need no initialization. Returns the boolean result.
func (p *Program) Eval(regs []uint64) bool {
	for i := range p.code {
		in := &p.code[i]
		a, b := regs[in.a], regs[in.b]
		var v uint64
		switch in.op {
		case pConst:
			v = in.imm
		case pNot:
			v = a ^ 1
		case pAnd:
			v = a & b
		case pOr:
			v = a | b
		case pXor:
			v = a ^ b
		case pEq:
			if a == b {
				v = 1
			}
		case pIte:
			if regs[in.imm] != 0 {
				v = a
			} else {
				v = b
			}
		case pUlt:
			if a < b {
				v = 1
			}
		case pUle:
			if a <= b {
				v = 1
			}
		case pSlt:
			sh := 64 - uint(in.w)
			if int64(a<<sh)>>sh < int64(b<<sh)>>sh {
				v = 1
			}
		case pSle:
			sh := 64 - uint(in.w)
			if int64(a<<sh)>>sh <= int64(b<<sh)>>sh {
				v = 1
			}
		case pAdd:
			v = (a + b) & in.mask
		case pSub:
			v = (a - b) & in.mask
		case pNeg:
			v = (-a) & in.mask
		case pMul:
			v = (a * b) & in.mask
		case pBVAnd:
			v = a & b
		case pBVOr:
			v = a | b
		case pBVXor:
			v = a ^ b
		case pBVNot:
			v = a ^ in.mask
		case pShl:
			if b < uint64(in.w) {
				v = (a << b) & in.mask
			}
		case pLshr:
			if b < uint64(in.w) {
				v = a >> b
			}
		case pAshr:
			w := uint(in.w)
			s := int64(a<<(64-w)) >> (64 - w)
			shv := b
			if shv > uint64(w) {
				shv = uint64(w)
			}
			v = uint64(s>>shv) & in.mask
		case pConcat:
			v = (a << in.imm) | b
		case pExtract:
			v = (a >> in.imm) & in.mask
		case pSExt:
			w := uint(in.imm)
			s := int64(a<<(64-w)) >> (64 - w)
			v = uint64(s) & in.mask
		}
		regs[in.dst] = v
	}
	return regs[p.out] != 0
}

// mask64 returns 2^w - 1 as a uint64 (all ones at w >= 64).
func mask64(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(w)) - 1
}

type lowerer struct {
	code  []pinst
	next  uint32
	memo  map[*Term]uint32
	zero  int32 // register holding constant 0, or -1
	slots SlotFunc
}

func (l *lowerer) temp() uint32 {
	r := l.next
	l.next++
	return r
}

func (l *lowerer) emit(in pinst) uint32 {
	in.dst = l.temp()
	l.code = append(l.code, in)
	return in.dst
}

// constReg materializes a constant, deduplicating the common zero.
func (l *lowerer) constReg(v uint64) uint32 {
	if v == 0 && l.zero >= 0 {
		return uint32(l.zero)
	}
	r := l.emit(pinst{op: pConst, imm: v})
	if v == 0 {
		l.zero = int32(r)
	}
	return r
}

// LowerBool compiles a boolean term into a Program. Slot registers
// [0, firstTemp) are owned by the caller (populated per update via the
// SlotFunc contract); temporaries are allocated from firstTemp up. The
// same DAG node is compiled once. Fails with ErrWideTerm when any
// subterm's bitvector sort exceeds 64 bits, or with the SlotFunc's error
// for variables the caller cannot bind.
func LowerBool(t *Term, firstTemp int, slots SlotFunc) (*Program, error) {
	mustBool(t)
	l := &lowerer{
		next:  uint32(firstTemp),
		memo:  make(map[*Term]uint32),
		zero:  -1,
		slots: slots,
	}
	out, err := l.lower(t)
	if err != nil {
		return nil, err
	}
	n := int(l.next)
	if int(out) >= n {
		n = int(out) + 1
	}
	return &Program{code: l.code, out: out, nRegs: n}, nil
}

func (l *lowerer) lower(t *Term) (uint32, error) {
	if r, ok := l.memo[t]; ok {
		return r, nil
	}
	r, err := l.lowerUncached(t)
	if err != nil {
		return 0, err
	}
	l.memo[t] = r
	return r, nil
}

// chain lowers an n-ary boolean op as a left fold of the binary op.
func (l *lowerer) chain(op pOp, args []*Term) (uint32, error) {
	acc, err := l.lower(args[0])
	if err != nil {
		return 0, err
	}
	for _, a := range args[1:] {
		r, err := l.lower(a)
		if err != nil {
			return 0, err
		}
		acc = l.emit(pinst{op: op, a: acc, b: r})
	}
	return acc, nil
}

func (l *lowerer) bin(op pOp, t *Term, imm uint64, mask uint64, w uint8) (uint32, error) {
	a, err := l.lower(t.args[0])
	if err != nil {
		return 0, err
	}
	b, err := l.lower(t.args[1])
	if err != nil {
		return 0, err
	}
	return l.emit(pinst{op: op, a: a, b: b, imm: imm, mask: mask, w: w}), nil
}

func (l *lowerer) un(op pOp, t *Term, imm uint64, mask uint64, w uint8) (uint32, error) {
	a, err := l.lower(t.args[0])
	if err != nil {
		return 0, err
	}
	return l.emit(pinst{op: op, a: a, imm: imm, mask: mask, w: w}), nil
}

func (l *lowerer) lowerUncached(t *Term) (uint32, error) {
	w := t.sort.Width
	if w > 64 {
		return 0, fmt.Errorf("%w (width %d in %s)", ErrWideTerm, w, t.op)
	}
	mask := mask64(w)
	switch t.op {
	case OpTrue:
		return l.constReg(1), nil
	case OpFalse:
		return l.constReg(0), nil
	case OpConst:
		return l.constReg(t.val.Uint64()), nil
	case OpVar:
		slot, err := l.slots(t.name, t.sort)
		if err != nil {
			return 0, err
		}
		if slot < 0 {
			return l.constReg(0), nil
		}
		return uint32(slot), nil
	case OpNot:
		return l.un(pNot, t, 0, 0, 0)
	case OpAnd:
		return l.chain(pAnd, t.args)
	case OpOr:
		return l.chain(pOr, t.args)
	case OpXor:
		return l.bin(pXor, t, 0, 0, 0)
	case OpIte:
		cond, err := l.lower(t.args[0])
		if err != nil {
			return 0, err
		}
		a, err := l.lower(t.args[1])
		if err != nil {
			return 0, err
		}
		b, err := l.lower(t.args[2])
		if err != nil {
			return 0, err
		}
		return l.emit(pinst{op: pIte, a: a, b: b, imm: uint64(cond)}), nil
	case OpEq:
		return l.bin(pEq, t, 0, 0, 0)
	case OpUlt:
		return l.bin(pUlt, t, 0, 0, 0)
	case OpUle:
		return l.bin(pUle, t, 0, 0, 0)
	case OpSlt, OpSle:
		wa := t.args[0].sort.Width
		if wa > 64 {
			return 0, fmt.Errorf("%w (width %d in %s)", ErrWideTerm, wa, t.op)
		}
		op := pSlt
		if t.op == OpSle {
			op = pSle
		}
		return l.bin(op, t, 0, 0, uint8(wa))
	case OpAdd:
		return l.bin(pAdd, t, 0, mask, 0)
	case OpSub:
		return l.bin(pSub, t, 0, mask, 0)
	case OpNeg:
		return l.un(pNeg, t, 0, mask, 0)
	case OpMul:
		return l.bin(pMul, t, 0, mask, 0)
	case OpBVAnd:
		return l.bin(pBVAnd, t, 0, 0, 0)
	case OpBVOr:
		return l.bin(pBVOr, t, 0, 0, 0)
	case OpBVXor:
		return l.bin(pBVXor, t, 0, 0, 0)
	case OpBVNot:
		return l.un(pBVNot, t, 0, mask, 0)
	case OpShl:
		return l.bin(pShl, t, 0, mask, uint8(w))
	case OpLshr:
		return l.bin(pLshr, t, 0, mask, uint8(w))
	case OpAshr:
		return l.bin(pAshr, t, 0, mask, uint8(w))
	case OpConcat:
		return l.bin(pConcat, t, uint64(t.args[1].sort.Width), 0, 0)
	case OpExtract:
		return l.un(pExtract, t, uint64(t.idx[1]), mask, 0)
	case OpZExt:
		// Zero-extension of an already-normalized value is the identity:
		// alias the argument's register.
		return l.lower(t.args[0])
	case OpSExt:
		return l.un(pSExt, t, uint64(t.args[0].sort.Width), mask, 0)
	default:
		return 0, fmt.Errorf("smt: lower: unknown op %v", t.op)
	}
}
