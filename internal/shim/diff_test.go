package shim

import (
	"bytes"
	"errors"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"bf4/internal/dataplane"
	"bf4/internal/smt"
	"bf4/internal/spec"
)

// This file is the two-tier equivalence harness: the same update stream
// replayed through a fast-path shim and a slow-path (-fastpath=off) shim
// must produce byte-identical accept/reject decisions, rejection
// messages, and shadow state. The update decoder is byte-driven so the
// deterministic replay tests and FuzzFastpath share one adversarial
// workload shape.

// widthFile is a handcrafted spec exercising every fast-path boundary:
// exact/ternary/lpm keys at widths 1, 63 and 64; a 65-bit action
// parameter (must fall back: too wide for the register machine); an
// unbound non-shadow variable (evaluates to zero on both tiers); a
// linked two-table assertion (compiled into the per-shadow-entry scan
// tier); and action-parameter guards that are bound only when the entry
// selects that action.
func widthFile() *spec.File {
	return &spec.File{
		Program: "widths",
		Tables: []*spec.TableSchema{
			{
				Name:   "wide",
				Prefix: "w$0",
				Keys: []spec.KeySchema{
					{Path: "hdr.a.f64", MatchKind: "exact", Width: 64},
					{Path: "hdr.a.f63", MatchKind: "ternary", Width: 63},
					{Path: "hdr.a.dst", MatchKind: "lpm", Width: 64},
					{Path: "hdr.a.bit", MatchKind: "exact", Width: 1},
				},
				Actions: []*spec.ActionSchema{
					{Name: "NoAction", Index: 0},
					{Name: "actA", Index: 1, Params: []spec.ParamSchema{
						{Name: "p64", Width: 64}, {Name: "p65", Width: 65}}},
					{Name: "actB", Index: 2, Params: []spec.ParamSchema{
						{Name: "q", Width: 1}}, Buggy: true},
				},
				Default: "NoAction",
			},
			{
				Name:   "small",
				Prefix: "s$0",
				Keys: []spec.KeySchema{
					{Path: "hdr.h.isValid()", MatchKind: "exact", Width: 1},
					{Path: "hdr.h.port", MatchKind: "ternary", Width: 8},
				},
				Actions: []*spec.ActionSchema{
					{Name: "NoAction", Index: 0},
					{Name: "go_", Index: 1, Params: []spec.ParamSchema{
						{Name: "port", Width: 9}}},
				},
				Default: "NoAction",
			},
			{
				Name:    "peer",
				Prefix:  "p$0",
				Keys:    []spec.KeySchema{{Path: "hdr.h.idx", MatchKind: "exact", Width: 8}},
				Actions: []*spec.ActionSchema{{Name: "NoAction", Index: 0}, {Name: "fwd", Index: 1}},
				Default: "NoAction",
			},
		},
		Assertions: []*spec.Assertion{
			{
				Table:  "wide",
				Source: "width-boundary",
				Forbidden: []string{
					"(and |w$0.hit| (= |w$0.key0| (_ bv0 64)) (bvult |w$0.key1| |w$0.mask1|))",
					"(and (= |w$0.action_run| (_ bv2 4)) (= |w$0.actB.q| (_ bv1 1)))",
					"(bvult (bvadd |w$0.key2| (_ bv1 64)) |w$0.mask2|)",
				},
				Vars: map[string]int{
					"w$0.hit": 0, "w$0.key0": 64, "w$0.key1": 63, "w$0.mask1": 63,
					"w$0.action_run": 4, "w$0.actB.q": 1, "w$0.key2": 64, "w$0.mask2": 64,
				},
			},
			{
				Table:  "wide",
				Source: "wide-param",
				Forbidden: []string{
					"(and (= |w$0.action_run| (_ bv1 4)) (not (= |w$0.actA.p65| (_ bv0 65))))",
				},
				Vars: map[string]int{"w$0.action_run": 4, "w$0.actA.p65": 65},
			},
			{
				Table:  "wide",
				Source: "ghost-var",
				Forbidden: []string{
					"(and |w$0.hit| |w$0.ghost| (= |w$0.key3| (_ bv0 1)))",
				},
				Vars: map[string]int{"w$0.hit": 0, "w$0.ghost": 0, "w$0.key3": 1},
			},
			{
				Table:  "small",
				Linked: "peer",
				Source: "linked",
				Forbidden: []string{
					"(and |s$0.hit| (= |s$0.key0| (_ bv0 1)) |p$0.hit| (= |p$0.key0| (_ bv3 8)))",
				},
				Vars: map[string]int{"s$0.hit": 0, "s$0.key0": 1, "p$0.hit": 0, "p$0.key0": 8},
			},
			{
				Table:  "small",
				Source: "param-guard",
				Forbidden: []string{
					"(and |s$0.hit| (= |s$0.key0| (_ bv0 1)) (not (= |s$0.mask1| (_ bv0 8))))",
					"(and (= |s$0.action_run| (_ bv1 2)) (bvule (_ bv256 9) |s$0.go_.port|))",
				},
				Vars: map[string]int{
					"s$0.hit": 0, "s$0.key0": 1, "s$0.mask1": 8,
					"s$0.action_run": 2, "s$0.go_.port": 9,
				},
			},
		},
	}
}

var (
	widthOnce sync.Once
	widthCp   *Compiled
)

// widthCompiled compiles widthFile once: Compiled is immutable and
// shared, exactly as fleet shards share it.
func widthCompiled(t testing.TB) *Compiled {
	widthOnce.Do(func() {
		cp, err := Compile(widthFile())
		if err == nil {
			widthCp = cp
		}
	})
	if widthCp == nil {
		t.Fatal("widthFile failed to compile")
	}
	return widthCp
}

// diffPair returns two shims over one compiled annotation set, the
// second with the fast path disabled (the reference semantics).
func diffPair(t testing.TB, cp *Compiled) (fast, slow *Shim) {
	t.Helper()
	fast = NewFromCompiled(cp)
	slow = NewFromCompiled(cp)
	slow.SetFastpath(false)
	return fast, slow
}

// applyBoth applies one update to both tiers and requires byte-identical
// outcomes (including the rejection message). A malformed update must be
// refused at the boundary by both — with a Reason, not by an assertion —
// whatever the shadow state is.
func applyBoth(t testing.TB, fast, slow *Shim, u *Update, malformed bool) {
	t.Helper()
	errF := fast.Apply(u)
	errS := slow.Apply(u)
	switch {
	case (errF == nil) != (errS == nil):
		t.Fatalf("tiers disagree on update to %s: fast=%v slow=%v", u.Table, errF, errS)
	case errF != nil && errF.Error() != errS.Error():
		t.Fatalf("tiers reject with different messages:\nfast: %s\nslow: %s", errF, errS)
	}
	if malformed {
		var re *RejectionError
		if !errors.As(errF, &re) || re.Assertion != nil || re.Reason == "" {
			t.Fatalf("malformed update to %s (%+v %+v) not refused at the boundary: %v", u.Table, u.Entry, u.SetDefault, errF)
		}
	}
}

// finishDiff asserts the end states match byte for byte and that the
// tiers actually took different paths.
func finishDiff(t testing.TB, fast, slow *Shim) {
	t.Helper()
	bf, err := fast.MarshalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	bs, err := slow.MarshalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bf, bs) {
		t.Fatalf("shadow snapshots differ:\nfast:\n%s\nslow:\n%s", bf, bs)
	}
	sf, ss := fast.Stats(), slow.Stats()
	if sf.Validated != ss.Validated || sf.Rejected != ss.Rejected {
		t.Fatalf("stats differ: fast=%+v slow=%+v", sf, ss)
	}
	if ss.FastpathHits != 0 {
		t.Fatalf("slow tier took the fast path %d times", ss.FastpathHits)
	}
}

// byteFeed drives the update decoder; exhausted feeds return zeros so
// any prefix of a fuzz input decodes deterministically.
type byteFeed struct {
	data []byte
	pos  int
}

func (b *byteFeed) next() byte {
	if b.pos >= len(b.data) {
		return 0
	}
	c := b.data[b.pos]
	b.pos++
	return c
}

func (b *byteFeed) big(nb int) *big.Int {
	buf := make([]byte, nb)
	for i := range buf {
		buf[i] = b.next()
	}
	return new(big.Int).SetBytes(buf)
}

// inWidth draws a value of the given width: adversarial within it (all
// ones, the top bit, a 64-bit word and beyond) but never over it.
func (b *byteFeed) inWidth(w int) *big.Int {
	v := b.big((w + 7) / 8)
	return v.And(v, smt.Mask(w))
}

// fuzzUpdate decodes one controller update and says whether it is
// malformed. Seven in eight entries are well-formed — every value in
// its declared width, masks nil, -1 or in range, prefix lengths -1 to the
// width, the action's own parameter count — so that the conditions and
// both tiers do the judging; the eighth breaks exactly one rule of the
// boundary check (schema.go). Default changes likewise, plus the error
// paths the shim special-cases (unknown table, empty update, a default
// onto a buggy action).
func fuzzUpdate(file *spec.File, fd *byteFeed) (u *Update, malformed bool) {
	ts := file.Tables[int(fd.next())%len(file.Tables)]
	op := fd.next()
	args := func(a *spec.ActionSchema) (ps []*big.Int) {
		for _, p := range a.Params {
			ps = append(ps, fd.inWidth(p.Width))
		}
		return ps
	}
	switch {
	case op == 250:
		return &Update{Table: "no_such_table", Entry: &dataplane.Entry{}}, true
	case op == 251:
		return &Update{Table: ts.Name}, true // empty update
	case op%16 == 0:
		act := ts.Actions[int(fd.next())%len(ts.Actions)]
		d := &dataplane.DefaultAction{Action: act.Name, Params: args(act)}
		switch m := fd.next(); {
		case m%8 != 7:
		case m&8 != 0:
			d.Action, malformed = "no_such_action", true
		default:
			d.Params, malformed = append(d.Params, big.NewInt(0)), true
		}
		return &Update{Table: ts.Name, SetDefault: d}, malformed
	}
	e := &dataplane.Entry{}
	for _, k := range ts.Keys {
		km := dataplane.KeyMatch{Value: fd.inWidth(k.Width), PrefixLen: -1}
		switch k.MatchKind {
		case "ternary":
			switch fd.next() % 4 {
			case 0: // nil: the full mask
			case 1:
				km.Mask = big.NewInt(-1)
			default:
				km.Mask = fd.inWidth(k.Width)
			}
		case "lpm":
			km.PrefixLen = int(fd.next())%(k.Width+2) - 1 // -1 .. width
		}
		e.Keys = append(e.Keys, km)
	}
	a := ts.Actions[int(fd.next())%len(ts.Actions)]
	e.Action, e.Params = a.Name, args(a)
	if m := fd.next(); m%8 == 7 {
		malformed = true
		j := int(fd.next()) % len(ts.Keys)
		k, w := &e.Keys[j], ts.Keys[j].Width
		over := new(big.Int).Lsh(big.NewInt(1), uint(w+int(fd.next())%70)) // a bit at or above the width
		switch shape := (m >> 3) % 8; {
		case shape == 0:
			e.Action = "bogus_action"
		case shape == 1:
			k.Value = over
		case shape == 2 && len(e.Params) > 0:
			e.Params[0] = new(big.Int).Lsh(big.NewInt(1), uint(a.Params[0].Width))
		case shape == 3 && len(e.Params) > 0:
			e.Params = e.Params[1:]
		case shape == 4:
			e.Params = append(e.Params, big.NewInt(0))
		case shape == 5:
			k.Mask = over
		case shape == 6:
			k.PrefixLen = w + 1 + int(fd.next())%3
		default:
			e.Keys = e.Keys[:len(e.Keys)-1] // arity break
		}
	}
	return &Update{Table: ts.Name, Entry: e}, malformed
}

// TestDifferentialReplayWidths replays a long adversarial stream over
// the width-boundary spec and requires identical behavior, with both
// tiers provably exercised.
func TestDifferentialReplayWidths(t *testing.T) {
	cp := widthCompiled(t)
	fast, slow := diffPair(t, cp)
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 1<<18)
	rng.Read(data)
	fd := &byteFeed{data: data}
	for i := 0; i < 2500; i++ {
		u, malformed := fuzzUpdate(cp.file, fd)
		applyBoth(t, fast, slow, u, malformed)
	}
	finishDiff(t, fast, slow)
	sf := fast.Stats()
	if sf.FastpathHits == 0 {
		t.Fatal("fast tier never ran a compiled program")
	}
	if sf.SlowpathHits == 0 {
		t.Fatal("fast tier never fell back (wide-param and linked assertions must)")
	}
	if sf.Rejected == 0 || sf.Rejected == sf.Validated {
		t.Fatalf("stream not adversarial enough: %d/%d rejected", sf.Rejected, sf.Validated)
	}
}

// TestDifferentialReplayNAT replays an adversarial stream over the full
// bf4-inferred NAT spec (the paper's running example) — fast vs slow.
func TestDifferentialReplayNAT(t *testing.T) {
	_, _, file := buildNATShim(t)
	cp, err := Compile(file)
	if err != nil {
		t.Fatal(err)
	}
	fast, slow := diffPair(t, cp)
	rng := rand.New(rand.NewSource(11))
	data := make([]byte, 1<<17)
	rng.Read(data)
	fd := &byteFeed{data: data}
	for i := 0; i < 2000; i++ {
		u, malformed := fuzzUpdate(cp.file, fd)
		applyBoth(t, fast, slow, u, malformed)
	}
	// The paper's faulty rule, verbatim.
	applyBoth(t, fast, slow, &Update{Table: "nat", Entry: &dataplane.Entry{
		Keys:   []dataplane.KeyMatch{dataplane.NewExact(0), dataplane.NewTernary(0x0A000000, 0xFF000000)},
		Action: "nat_hit",
		Params: []*big.Int{big.NewInt(1)},
	}}, false)
	finishDiff(t, fast, slow)
	if fast.Stats().FastpathHits == 0 {
		t.Fatal("NAT assertions should compile to the fast path")
	}
}

// TestDifferentialShadowGrowth drives the linked (shadow-resolved)
// assertion specifically: peer entries change how small-table updates
// are judged, and both tiers must agree at every shadow size.
func TestDifferentialShadowGrowth(t *testing.T) {
	cp := widthCompiled(t)
	fast, slow := diffPair(t, cp)
	small := func(valid int64, mask *big.Int) *Update {
		km := dataplane.KeyMatch{Value: big.NewInt(0x55), Mask: mask, PrefixLen: -1}
		return &Update{Table: "small", Entry: &dataplane.Entry{
			Keys:   []dataplane.KeyMatch{{Value: big.NewInt(valid), PrefixLen: -1}, km},
			Action: "NoAction",
		}}
	}
	peer := func(idx int64) *Update {
		return &Update{Table: "peer", Entry: &dataplane.Entry{
			Keys:   []dataplane.KeyMatch{{Value: big.NewInt(idx), PrefixLen: -1}},
			Action: "fwd",
		}}
	}
	// Empty shadow: the linked condition treats peer.hit as false.
	applyBoth(t, fast, slow, small(0, nil), false)
	// Non-matching peer entry, then the matching one (key0 == 3).
	applyBoth(t, fast, slow, peer(9), false)
	applyBoth(t, fast, slow, small(0, nil), false)
	applyBoth(t, fast, slow, peer(3), false)
	applyBoth(t, fast, slow, small(0, nil), false)
	applyBoth(t, fast, slow, small(1, nil), false)
	finishDiff(t, fast, slow)
}

// FuzzFastpath: the headline oracle. Arbitrary byte strings decode into
// update streams; fast and slow tiers must stay byte-identical on
// decisions, messages and shadow state, and both must refuse a malformed
// update at the boundary.
func FuzzFastpath(f *testing.F) {
	// Seeds (testdata/fuzz/FuzzFastpath holds the same under names): a
	// clean wide-table insert (exact/ternary/lpm keys at widths 64/63/64/1),
	// a small-table insert with a 9-bit param, the shadow-scan pair (peer
	// insert then small insert), a SetDefault onto the buggy action, an
	// unknown table, an empty update — and every malformed shape fuzzUpdate
	// knows, on a small-table insert running go_ and on a default change.
	f.Add([]byte{0x00, 0x01, 1, 2, 3, 4, 5, 6, 7, 8, 9, 9, 9, 9, 9, 9, 9, 8, 0x02, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0x01, 0x01, 0x03})
	f.Add([]byte{0x01, 0x01, 0x01, 0xff, 0x02, 0x0e, 0x01, 0x01, 0xff})
	f.Add([]byte{0x02, 0x01, 0x03, 0x01, 0x00, 0x01, 0x01, 0x00, 0x55, 0x00, 0x00, 0x00})
	f.Add([]byte{0x00, 0x10, 0x02, 0x01})
	f.Add([]byte{0x00, 0xfa})
	f.Add([]byte{0x01, 0xfb})
	for shape := byte(0); shape < 8; shape++ {
		f.Add([]byte{0x01, 0x01, 0x01, 0x55, 0x00, 0x01, 0x00, 0x07, 7 + 8*shape, 0x01, 0x09, 0x01})
	}
	f.Add([]byte{0x01, 0x10, 0x01, 0x00, 0x07, 0x07}) // a default with a parameter too many
	f.Add([]byte{0x01, 0x10, 0x01, 0x00, 0x07, 0x0f}) // set_default no_such_action
	f.Fuzz(func(t *testing.T, data []byte) {
		cp := widthCompiled(t)
		fast, slow := diffPair(t, cp)
		fd := &byteFeed{data: data}
		n := 1 + len(data)/8
		if n > 64 {
			n = 64
		}
		for i := 0; i < n; i++ {
			u, malformed := fuzzUpdate(cp.file, fd)
			applyBoth(t, fast, slow, u, malformed)
		}
		finishDiff(t, fast, slow)
	})
}
