package analysis

import (
	"testing"

	"bf4/internal/ir"
	"bf4/internal/p4/token"
	"bf4/internal/smt"
)

// TestLivenessBoundary pins the exit boundary of the dead-write
// analysis: headers, validity bits and standard metadata are externally
// observable (emit is implicit in the lowering), so they are live at
// pipeline exit; only `meta.*` user-metadata locals may die there.
func TestLivenessBoundary(t *testing.T) {
	p := ir.NewProgram("t")
	p.NewVar("hdr.eth.dstAddr", smt.BV(48))
	p.NewVar("hdr.eth.$valid", smt.BoolSort)
	p.NewVar("smeta.egress_spec", smt.BV(9))
	p.NewVar("meta.m.scratch", smt.BV(32))
	p.NewVar("meta.m.flag", smt.BV(8))

	b := NewLiveness(p).Boundary().(liveSet)
	for _, name := range []string{"hdr.eth.dstAddr", "hdr.eth.$valid", "smeta.egress_spec"} {
		if !b[name] {
			t.Errorf("%s not live at exit, but it is externally observable", name)
		}
	}
	for _, name := range []string{"meta.m.scratch", "meta.m.flag"} {
		if b[name] {
			t.Errorf("%s live at exit, but user metadata dies with the packet", name)
		}
	}
}

// posAssign builds an Assign node with a valid source position, the way
// lowered user code looks to deadWriteLint.
func posAssign(p *ir.Program, v *ir.Var, rhs *smt.Term, line int) *ir.Node {
	n := p.NewNode(ir.Assign)
	n.Var, n.Expr = v, rhs
	n.Pos = token.Pos{Line: line, Col: 1}
	return n
}

// runDeadWrite wires the liveness solve into the lint pass.
func runDeadWrite(p *ir.Program) []Diagnostic {
	fs := SolveBackward(p, NewLiveness(p))
	return deadWriteLint(p, fs)
}

// TestDeadWriteAtExit: a final write to user metadata is dead; the same
// final write to a header field or standard metadata is not, purely
// because of the boundary.
func TestDeadWriteAtExit(t *testing.T) {
	p := ir.NewProgram("t")
	m := p.NewVar("meta.m.scratch", smt.BV(8))
	h := p.NewVar("hdr.eth.ttl", smt.BV(8))
	s := p.NewVar("smeta.egress_spec", smt.BV(8))
	w1 := posAssign(p, m, p.F.BVConst64(1, 8), 10)
	w2 := posAssign(p, h, p.F.BVConst64(2, 8), 11)
	w3 := posAssign(p, s, p.F.BVConst64(3, 8), 12)
	exit := p.NewNode(ir.AcceptTerm)
	chain(p, w1, w2, w3, exit)

	ds := runDeadWrite(p)
	if len(ds) != 1 {
		t.Fatalf("got %d diagnostics, want 1 (only the meta write): %v", len(ds), ds)
	}
	if ds[0].Line != 10 || ds[0].Pass != "dead-write" {
		t.Errorf("diagnostic = %+v, want the line-10 meta.m.scratch write", ds[0])
	}
}

// TestDeadWriteOverwrite: a metadata value overwritten before any read
// is dead even away from the exit; a read in between keeps it.
func TestDeadWriteOverwrite(t *testing.T) {
	for _, readBetween := range []bool{false, true} {
		p := ir.NewProgram("t")
		m := p.NewVar("meta.m.x", smt.BV(8))
		h := p.NewVar("hdr.eth.ttl", smt.BV(8))
		first := posAssign(p, m, p.F.BVConst64(1, 8), 20)
		var mid *ir.Node
		if readBetween {
			mid = posAssign(p, h, m.Term, 21) // reads meta.m.x into a header
		} else {
			mid = p.NewNode(ir.Nop)
		}
		second := posAssign(p, m, p.F.BVConst64(2, 8), 22)
		exit := p.NewNode(ir.AcceptTerm)
		chain(p, first, mid, second, exit)

		ds := runDeadWrite(p)
		// The line-22 write is always dead (meta at exit); line 20 only
		// without the intervening read.
		lines := map[int]bool{}
		for _, d := range ds {
			lines[d.Line] = true
		}
		if !lines[22] {
			t.Errorf("readBetween=%v: final meta write (line 22) not reported", readBetween)
		}
		if readBetween && lines[20] {
			t.Errorf("overwritten value was read first; line 20 must not be reported")
		}
		if !readBetween && !lines[20] {
			t.Errorf("value overwritten without a read; line 20 must be reported")
		}
	}
}

// TestDeadWriteBranchRead: a write is live if ANY successor path reads
// it (may-liveness joins with union).
func TestDeadWriteBranchRead(t *testing.T) {
	p := ir.NewProgram("t")
	m := p.NewVar("meta.m.x", smt.BV(8))
	h := p.NewVar("hdr.eth.ttl", smt.BV(8))
	c := p.NewVar("c", smt.BoolSort)
	w := posAssign(p, m, p.F.BVConst64(1, 8), 30)
	br := p.NewNode(ir.Branch)
	br.Expr = c.Term
	readArm := posAssign(p, h, m.Term, 31)
	skipArm := p.NewNode(ir.Nop)
	exit := p.NewNode(ir.AcceptTerm)
	chain(p, w, br)
	p.Edge(br, readArm)
	p.Edge(br, skipArm)
	p.Edge(readArm, exit)
	p.Edge(skipArm, exit)

	for _, d := range runDeadWrite(p) {
		if d.Line == 30 {
			t.Fatalf("write read on one arm reported dead: %+v", d)
		}
	}
}

// TestDeadWriteInlinedCopies: the same source position can lower to
// several IR nodes (action inlining); the write is reported only when
// every copy is dead.
func TestDeadWriteInlinedCopies(t *testing.T) {
	p := ir.NewProgram("t")
	m := p.NewVar("meta.m.x", smt.BV(8))
	h := p.NewVar("hdr.eth.ttl", smt.BV(8))
	c := p.NewVar("c", smt.BoolSort)
	br := p.NewNode(ir.Branch)
	br.Expr = c.Term
	// Two lowered copies of the same source assignment.
	copy1 := posAssign(p, m, p.F.BVConst64(1, 8), 40)
	copy2 := posAssign(p, m, p.F.BVConst64(1, 8), 40)
	read := posAssign(p, h, m.Term, 41) // only copy1's arm reads it
	join := p.NewNode(ir.Nop)
	exit := p.NewNode(ir.AcceptTerm)
	start := p.NewNode(ir.Nop)
	p.Start = start
	p.Edge(start, br)
	p.Edge(br, copy1)
	p.Edge(br, copy2)
	p.Edge(copy1, read)
	p.Edge(read, join)
	p.Edge(copy2, join)
	p.Edge(join, exit)

	for _, d := range runDeadWrite(p) {
		if d.Line == 40 {
			t.Fatalf("write with one live inlined copy reported dead: %+v", d)
		}
	}
}

// TestDeadWriteSkipsSynthetic: shadow variables, control variables and
// positionless nodes never produce diagnostics, whatever their liveness.
func TestDeadWriteSkipsSynthetic(t *testing.T) {
	p := ir.NewProgram("t")
	shadow := p.NewVar("$tmp0", smt.BV(8))
	valid := p.NewVar("meta.m.$valid", smt.BoolSort)
	ctl := p.NewVar("pcn_t$0.hit", smt.BoolSort)
	ctl.IsControl = true
	noPos := p.NewVar("meta.m.y", smt.BV(8))

	w1 := posAssign(p, shadow, p.F.BVConst64(1, 8), 50)
	w2 := posAssign(p, valid, p.F.True(), 51)
	w3 := posAssign(p, ctl, p.F.True(), 52)
	w4 := assign(p, noPos, p.F.BVConst64(1, 8)) // no position: synthetic
	exit := p.NewNode(ir.AcceptTerm)
	chain(p, w1, w2, w3, w4, exit)

	if ds := runDeadWrite(p); len(ds) != 0 {
		t.Fatalf("synthetic writes reported: %v", ds)
	}
}
