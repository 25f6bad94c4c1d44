package shim

import (
	"bytes"
	"errors"
	"math/big"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"bf4/internal/dataplane"
	"bf4/internal/obs"
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
// exact/ternary/lpm keys at widths 1, 63 and 64, and at 65 and 128 (table
// v6, with a 128-bit parameter), whose conditions run on two-limb
// registers: = and not on masks against (_ bv0 128) as ipv6_fib's do,
// bvult, bvule, bvand, bvor, bvnot, ite, zero_extend and extracts inside
// and across a limb; a 65-bit action parameter; a 128-bit bvadd the
// register machine does not take (wide-arith: the counted term-tier
// fallback, behind its action_run guard); an unbound non-shadow variable
// (evaluates to zero on both tiers); a linked two-table assertion
// (compiled into the per-shadow-entry scan tier); and action-parameter
// guards that are bound only when the entry selects that action.
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
			{
				Name:   "v6",
				Prefix: "v$0",
				Keys: []spec.KeySchema{
					{Path: "hdr.b.e65", MatchKind: "exact", Width: 65},
					{Path: "hdr.b.t65", MatchKind: "ternary", Width: 65},
					{Path: "hdr.b.l65", MatchKind: "lpm", Width: 65},
					{Path: "hdr.b.e128", MatchKind: "exact", Width: 128},
					{Path: "hdr.b.t128", MatchKind: "ternary", Width: 128},
					{Path: "hdr.b.l128", MatchKind: "lpm", Width: 128},
				},
				Actions: []*spec.ActionSchema{
					{Name: "NoAction", Index: 0},
					{Name: "set6", Index: 1, Params: []spec.ParamSchema{
						{Name: "addr", Width: 128}, {Name: "port", Width: 9}}},
				},
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
			{
				Table:  "v6",
				Source: "wide-keys",
				Forbidden: []string{
					"(and |v$0.hit| (not (= (_ bv0 128) |v$0.mask4|)) (= ((_ extract 0 0) |v$0.key4|) (_ bv1 1)))",
					"(and (= |v$0.action_run| (_ bv1 4)) (bvult |v$0.set6.addr| (bvand |v$0.key3| |v$0.mask5|)))",
					"(= (bvor |v$0.key0| |v$0.mask1|) (bvnot (_ bv0 65)))",
					"(and (not (= |v$0.mask2| (_ bv0 65))) (= ((_ extract 64 1) |v$0.mask2|) ((_ extract 63 0) |v$0.key1|)))",
					"(and (bvule ((_ zero_extend 63) |v$0.key2|) |v$0.mask5|) (= (ite (= |v$0.key0| (_ bv0 65)) |v$0.mask4| |v$0.key3|) (_ bv0 128)))",
				},
				Vars: map[string]int{
					"v$0.hit": 0, "v$0.action_run": 4, "v$0.set6.addr": 128,
					"v$0.key0": 65, "v$0.key1": 65, "v$0.key2": 65, "v$0.key3": 128, "v$0.key4": 128,
					"v$0.mask1": 65, "v$0.mask2": 65, "v$0.mask4": 128, "v$0.mask5": 128,
				},
			},
			{
				Table:     "v6",
				Source:    "wide-arith",
				Forbidden: []string{"(and (= (bvadd |v$0.key3| (_ bv1 128)) (_ bv0 128)) (= |v$0.action_run| (_ bv1 4)))"},
				Vars:      map[string]int{"v$0.key3": 128, "v$0.action_run": 4},
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

// applyUpdate applies one update to every evaluator and requires the
// same outcome of each (diffSet.apply). A malformed update must be
// refused at the boundary by all — with a Reason, not by an assertion —
// whatever the shadow state is.
func (d *diffSet) applyUpdate(t testing.TB, u *Update, malformed bool) {
	t.Helper()
	errF := d.apply(t, []*Update{u}, false)
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
	sf, ss := fast.Counters(), slow.Counters()
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

// inWidth draws a value of the given width: adversarial within it — one
// in sixteen a limb boundary (selector bytes 0xf0 to 0xf3: zero, 2^63,
// 2^64 - 1, 2^64, all ones where one does not fit) or all ones (0xf4),
// the rest random bytes — but never over it.
func (b *byteFeed) inWidth(w int) dataplane.Value {
	if sel := b.next(); sel >= 0xf0 {
		if i := int(sel-0xf0) % 5; i < len(boundaryValues) && boundaryValues[i].BitLen() <= w {
			return bigValue(boundaryValues[i])
		}
		return dataplane.Ones(w)
	}
	buf := make([]byte, (w+7)/8)
	for i := range buf {
		buf[i] = b.next()
	}
	return bigValue(new(big.Int).And(new(big.Int).SetBytes(buf), smt.Mask(w)))
}

// boundaryValues are the values on either side of the limb boundaries.
var boundaryValues = []*big.Int{
	big.NewInt(0),
	new(big.Int).Lsh(big.NewInt(1), 63),
	new(big.Int).SetUint64(1<<64 - 1),
	new(big.Int).Lsh(big.NewInt(1), 64),
}

// bigValue is x, which is not negative, as a dataplane.Value.
func bigValue(x *big.Int) dataplane.Value {
	v, err := dataplane.FromBig(x)
	if err != nil {
		panic(err)
	}
	return v
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
	args := func(a *spec.ActionSchema) (ps []dataplane.Value) {
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
			d.Params, malformed = append(d.Params, dataplane.Value{}), true
		}
		return &Update{Table: ts.Name, SetDefault: d}, malformed
	}
	e := &dataplane.Entry{}
	for _, k := range ts.Keys {
		km := dataplane.KeyMatch{Value: fd.inWidth(k.Width), PrefixLen: -1}
		switch k.MatchKind {
		case "ternary":
			switch fd.next() % 4 {
			case 0: // none: the full mask
			case 1:
				km.MaskKind = dataplane.FullMask
			default:
				km.Mask, km.MaskKind = fd.inWidth(k.Width), dataplane.MaskBits
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
		over := bigValue(new(big.Int).Lsh(big.NewInt(1), uint(w+int(fd.next())%70))) // a bit at or above the width
		switch shape := (m >> 3) % 8; {
		case shape == 0:
			e.Action = "bogus_action"
		case shape == 1:
			k.Value = over
		case shape == 2 && len(e.Params) > 0:
			e.Params[0] = bigValue(new(big.Int).Lsh(big.NewInt(1), uint(a.Params[0].Width)))
		case shape == 3 && len(e.Params) > 0:
			e.Params = e.Params[1:]
		case shape == 4:
			e.Params = append(e.Params, dataplane.Value{})
		case shape == 5:
			k.Mask, k.MaskKind = over, dataplane.MaskBits
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
	d := newDiffSet(t, cp)
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 1<<18)
	rng.Read(data)
	fd := &byteFeed{data: data}
	for i := 0; i < 2500; i++ {
		u, malformed := fuzzUpdate(cp.file, fd)
		d.applyUpdate(t, u, malformed)
	}
	d.finish(t)
	sf := d.fast.Counters()
	if sf.FastpathHits == 0 {
		t.Fatal("fast tier never ran a compiled program")
	}
	if sf.SlowpathHits == 0 {
		t.Fatal("fast tier never fell back (wide-arith's 128-bit bvadd must)")
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
	d := newDiffSet(t, cp)
	rng := rand.New(rand.NewSource(11))
	data := make([]byte, 1<<17)
	rng.Read(data)
	fd := &byteFeed{data: data}
	for i := 0; i < 2000; i++ {
		u, malformed := fuzzUpdate(cp.file, fd)
		d.applyUpdate(t, u, malformed)
	}
	// The paper's faulty rule, verbatim.
	d.applyUpdate(t, &Update{Table: "nat", Entry: &dataplane.Entry{
		Keys:   []dataplane.KeyMatch{dataplane.NewExact(0), dataplane.NewTernary(0x0A000000, 0xFF000000)},
		Action: "nat_hit",
		Params: []dataplane.Value{dataplane.U64(1)},
	}}, false)
	d.finish(t)
	if d.fast.Counters().FastpathHits == 0 {
		t.Fatal("NAT assertions should compile to the fast path")
	}
}

// TestDifferentialShadowGrowth drives the linked (shadow-resolved)
// assertion specifically: peer entries change how small-table updates
// are judged, and both tiers must agree at every shadow size.
func TestDifferentialShadowGrowth(t *testing.T) {
	cp := widthCompiled(t)
	d := newDiffSet(t, cp)
	small := func(valid int64) *Update {
		km := dataplane.KeyMatch{Value: dataplane.U64(0x55), PrefixLen: -1}
		return &Update{Table: "small", Entry: &dataplane.Entry{
			Keys:   []dataplane.KeyMatch{dataplane.NewExact(valid), km},
			Action: "NoAction",
		}}
	}
	peer := func(idx int64) *Update {
		return &Update{Table: "peer", Entry: &dataplane.Entry{
			Keys:   []dataplane.KeyMatch{dataplane.NewExact(idx)},
			Action: "fwd",
		}}
	}
	// Empty shadow: the linked condition treats peer.hit as false.
	d.applyUpdate(t, small(0), false)
	// Non-matching peer entry, then the matching one (key0 == 3).
	d.applyUpdate(t, peer(9), false)
	d.applyUpdate(t, small(0), false)
	d.applyUpdate(t, peer(3), false)
	d.applyUpdate(t, small(0), false)
	d.applyUpdate(t, small(1), false)
	d.finish(t)
}

// TestWidthBoundaryValues walks the 65- and 128-bit keys of widthFile's
// v6 table, and the 64-bit ones of wide, through the limb boundaries: each
// key at 0, 2^63, 2^64 - 1, 2^64 and all ones, a ternary one under no
// mask, the full mask and each of those masks, an lpm one under prefix
// lengths 0, 64, its width and none; then set6's 128-bit parameter at
// each, and a 65-bit p65. The register tier, the term tier and the
// big.Int reference must agree on every update, and the conditions must
// reject some of them, the one of wide-arith on the term tier.
func TestWidthBoundaryValues(t *testing.T) {
	cp := widthCompiled(t)
	d := newDiffSet(t, cp)
	boundaries := func(w int) (vs []dataplane.Value) {
		for _, b := range append(boundaryValues, smt.Mask(w)) {
			if b.BitLen() <= w {
				vs = append(vs, bigValue(b))
			}
		}
		return vs
	}
	schema := map[string]*spec.TableSchema{}
	for _, ts := range cp.file.Tables {
		schema[ts.Name] = ts
	}
	// base matches nothing any condition forbids: key0 and key3 are 1,
	// ternary masks 0, lpm keys matched whole.
	base := func(table string) *dataplane.Entry {
		e := &dataplane.Entry{Action: "NoAction"}
		for j, k := range schema[table].Keys {
			km := dataplane.KeyMatch{PrefixLen: -1}
			switch {
			case j == 0 || j == 3:
				km.Value = dataplane.U64(1)
			case k.MatchKind == "ternary":
				km.MaskKind = dataplane.MaskBits
			}
			e.Keys = append(e.Keys, km)
		}
		return e
	}
	rejected := map[string]bool{}
	apply := func(table string, e *dataplane.Entry) {
		var re *RejectionError
		if err := d.apply(t, []*Update{{Table: table, Entry: e}}, false); errors.As(err, &re) && re.Assertion != nil {
			rejected[re.Forbidden] = true
		}
	}
	for _, table := range []string{"v6", "wide"} {
		for j, k := range schema[table].Keys {
			for _, v := range boundaries(k.Width) {
				var variants []dataplane.KeyMatch
				switch k.MatchKind {
				case "ternary":
					variants = append(variants, dataplane.KeyMatch{Value: v, PrefixLen: -1}, dataplane.KeyMatch{Value: v, MaskKind: dataplane.FullMask, PrefixLen: -1})
					for _, m := range boundaries(k.Width) {
						variants = append(variants, dataplane.KeyMatch{Value: v, Mask: m, MaskKind: dataplane.MaskBits, PrefixLen: -1})
					}
				case "lpm":
					for _, plen := range []int{-1, 0, 64, k.Width} {
						variants = append(variants, dataplane.KeyMatch{Value: v, PrefixLen: min(plen, k.Width)})
					}
				default:
					variants = append(variants, dataplane.KeyMatch{Value: v, PrefixLen: -1})
				}
				for _, km := range variants {
					e := base(table)
					e.Keys[j] = km
					apply(table, e)
				}
			}
		}
	}
	for _, addr := range boundaries(128) {
		for _, key3 := range boundaries(128) {
			e := base("v6")
			e.Keys[3].Value, e.Action, e.Params = key3, "set6", []dataplane.Value{addr, dataplane.U64(0)}
			apply("v6", e)
		}
	}
	for _, p := range boundaries(65) {
		e := base("wide")
		e.Action, e.Params = "actA", []dataplane.Value{dataplane.U64(0), p}
		apply("wide", e)
	}
	d.finish(t)
	c := d.fast.Counters()
	arith := cp.file.Assertions[slices.IndexFunc(cp.file.Assertions, func(a *spec.Assertion) bool { return a.Source == "wide-arith" })]
	if len(rejected) < 6 || !rejected[arith.Forbidden[0]] || c.SlowpathHits == 0 || c.Rejected == c.Validated {
		t.Fatalf("boundaries too tame: %d forbidden terms rejected some update (wide-arith's: %v), counters %+v",
			len(rejected), rejected[arith.Forbidden[0]], c)
	}
}

// linkedFile is a handcrafted spec of linked assertions whose scanning
// conditions have every kind of conjunct: filters (they read only the
// scanned table), guards (only the updated one) and joins (both) — an
// equality of keys, a parameter against a key, a masked key against an
// extract of the other's lpm key — under nested ANDs, with one binding
// shared by two assertions that scan the same table. Keys and parameters
// are two to four bits wide, so random values meet often. Table c's
// 72-bit key puts the wide-link conditions that read it on the term tier
// on both sides: one as a join, one in a conjunct that reads c alone.
func linkedFile() *spec.File {
	return &spec.File{
		Program: "linked-filters",
		Tables: []*spec.TableSchema{
			{
				Name:   "a",
				Prefix: "a$0",
				Keys: []spec.KeySchema{
					{Path: "hdr.a.k", MatchKind: "exact", Width: 2},
					{Path: "hdr.a.t", MatchKind: "ternary", Width: 3},
				},
				Actions: []*spec.ActionSchema{
					{Name: "NoAction", Index: 0},
					{Name: "set", Index: 1, Params: []spec.ParamSchema{{Name: "v", Width: 2}}},
				},
				Default: "NoAction",
			},
			{
				Name:   "b",
				Prefix: "b$0",
				Keys: []spec.KeySchema{
					{Path: "hdr.b.k", MatchKind: "exact", Width: 2},
					{Path: "hdr.b.p", MatchKind: "lpm", Width: 4},
				},
				Actions: []*spec.ActionSchema{
					{Name: "NoAction", Index: 0},
					{Name: "fwd", Index: 1, Params: []spec.ParamSchema{{Name: "port", Width: 3}}},
					{Name: "drop", Index: 2},
				},
				Default: "NoAction",
			},
			{
				Name:   "c",
				Prefix: "c$0",
				Keys:   []spec.KeySchema{{Path: "hdr.c.addr", MatchKind: "exact", Width: 72}},
				Actions: []*spec.ActionSchema{
					{Name: "NoAction", Index: 0},
					{Name: "mark", Index: 1, Params: []spec.ParamSchema{{Name: "m", Width: 2}}},
				},
				Default: "NoAction",
			},
		},
		Assertions: []*spec.Assertion{
			{
				Table:  "a",
				Linked: "b",
				Source: "key-join",
				Forbidden: []string{
					"(and |a$0.hit| |b$0.hit| (= |b$0.action_run| (_ bv1 2)) (bvule (_ bv4 3) |b$0.fwd.port|) (= |a$0.key0| |b$0.key0|))",
					"(and (and |a$0.hit| (= |a$0.action_run| (_ bv1 2))) (and (not (= |b$0.mask1| (_ bv0 4))) (= |a$0.set.v| |b$0.key0|)))",
				},
				Vars: map[string]int{
					"a$0.hit": 0, "a$0.key0": 2, "a$0.action_run": 2, "a$0.set.v": 2,
					"b$0.hit": 0, "b$0.key0": 2, "b$0.action_run": 2, "b$0.fwd.port": 3, "b$0.mask1": 4,
				},
			},
			{
				Table:  "a",
				Linked: "b",
				Source: "mask-join",
				Forbidden: []string{
					"(and |b$0.hit| (bvult |b$0.key1| (_ bv8 4)) (= (bvand |a$0.key1| |a$0.mask1|) ((_ extract 2 0) |b$0.key1|)))",
				},
				Vars: map[string]int{"a$0.key1": 3, "a$0.mask1": 3, "b$0.hit": 0, "b$0.key1": 4},
			},
			{
				Table:  "b",
				Linked: "c",
				Source: "wide-link",
				Forbidden: []string{
					"(and |b$0.hit| (= |b$0.key0| (_ bv3 2)) |c$0.hit| (= ((_ extract 71 70) |c$0.key0|) ((_ extract 1 0) |b$0.key1|)))",
					"(and (= |b$0.action_run| (_ bv1 2)) |c$0.hit| (= ((_ extract 71 70) |c$0.key0|) (_ bv0 2)))",
					"(and (= |b$0.action_run| (_ bv2 2)) (= |c$0.action_run| (_ bv1 2)) (= |c$0.mark.m| |b$0.key0|))",
				},
				Vars: map[string]int{
					"b$0.hit": 0, "b$0.key0": 2, "b$0.key1": 4, "b$0.action_run": 2,
					"c$0.hit": 0, "c$0.key0": 72, "c$0.action_run": 2, "c$0.mark.m": 2,
				},
			},
		},
	}
}

// TestDifferentialLinkedFilters replays adversarial streams over
// linkedFile in atomic batches of one to four updates, so that batches
// are rolled back after committing some of their entries, and requires
// byte-identical decisions, rejection texts and snapshots on the fast
// tier, which scans only the entries that pass a condition's filters,
// and the term tier, which scans them all. A join taken for a filter, or
// a candidate row left behind by a rollback, diverges here. The last
// replay is of a file that lists table a twice, which Compile must plan
// once.
func TestDifferentialLinkedFilters(t *testing.T) {
	twice := linkedFile()
	twice.Program, twice.Tables = "linked-filters-twice", append(twice.Tables, twice.Tables[0])
	for _, r := range []struct {
		file *spec.File
		seed int64
	}{{linkedFile(), 3}, {linkedFile(), 17}, {linkedFile(), 29}, {twice, 3}} {
		cp, err := Compile(r.file)
		if err != nil {
			t.Fatal(err)
		}
		d := newDiffSet(t, cp)
		rng := rand.New(rand.NewSource(r.seed))
		data := make([]byte, 1<<17)
		rng.Read(data)
		fd := &byteFeed{data: data}
		rolledBack, linked := 0, 0
		for i := 0; i < 1200; i++ {
			batch := make([]*Update, 1+rng.Intn(4))
			for j := range batch {
				batch[j], _ = fuzzUpdate(cp.file, fd)
			}
			errF := d.apply(t, batch, true)
			var be *BatchError
			var re *RejectionError
			if errors.As(errF, &be) && be.Index > 0 {
				rolledBack++
			}
			if errors.As(errF, &re) && re.Assertion != nil && re.Assertion.Linked != "" {
				linked++
			}
		}
		d.finish(t)
		// Both cuts must have run: some scanned entries kept as
		// candidates, some filtered out, and linked rejections found.
		kept, dropped := 0, 0
		for _, tb := range cp.byName {
			for k := range tb.scanners {
				n := len(d.fast.cands[tb.idx][k].at)
				kept += n
				dropped += len(d.fast.shadow[tb.idx]) - n
			}
		}
		if kept == 0 || dropped == 0 || rolledBack == 0 || linked == 0 || d.fast.Counters().FastpathHits == 0 {
			t.Fatalf("%s, seed %d: stream too tame: %d candidate rows kept, %d entries filtered out, %d batches rolled back after a commit, %d linked rejections",
				r.file.Program, r.seed, kept, dropped, rolledBack, linked)
		}
	}
}

// TestDifferentialObsAttached: a shim with a registry attached reads the
// clock at every assertion boundary, one without reads none; nothing else
// may differ. The width-boundary stream, the NAT stream and linked-filter
// batches replay on each tier through a shim of each kind, and decisions,
// rejection texts, counters and the final MarshalSnapshot must be
// byte-identical.
func TestDifferentialObsAttached(t *testing.T) {
	_, _, nat := buildNATShim(t)
	for _, r := range []struct {
		file  *spec.File
		seed  int64
		batch bool
	}{{widthFile(), 7, false}, {nat, 11, false}, {linkedFile(), 17, true}} {
		cp, err := Compile(r.file)
		if err != nil {
			t.Fatal(err)
		}
		for _, fastpath := range []bool{true, false} {
			plain, observed := NewFromCompiled(cp), NewFromCompiled(cp)
			plain.SetFastpath(fastpath)
			observed.SetFastpath(fastpath)
			reg := obs.NewRegistry()
			observed.SetObs(reg)
			applyTo := func(s *Shim, batch []*Update) error {
				if r.batch {
					return s.ApplyBatch(batch)
				}
				return s.Apply(batch[0])
			}
			rng := rand.New(rand.NewSource(r.seed))
			data := make([]byte, 1<<17)
			rng.Read(data)
			fd := &byteFeed{data: data}
			for i := 0; i < 1000; i++ {
				batch := []*Update{nil}
				if r.batch {
					batch = make([]*Update, 1+rng.Intn(4))
				}
				for j := range batch {
					batch[j], _ = fuzzUpdate(cp.file, fd)
				}
				errP, errO := applyTo(plain, batch), applyTo(observed, batch)
				if (errP == nil) != (errO == nil) || errP != nil && errP.Error() != errO.Error() {
					t.Fatalf("%s, fastpath=%v, update %d: without a registry %v, with one %v", r.file.Program, fastpath, i, errP, errO)
				}
			}
			bp, err := plain.MarshalSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			bo, err := observed.MarshalSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bp, bo) {
				t.Fatalf("%s, fastpath=%v: snapshots differ with a registry attached", r.file.Program, fastpath)
			}
			cpn, con := plain.Counters(), observed.Counters()
			if cpn != con {
				t.Fatalf("%s, fastpath=%v: counters %+v without a registry, %+v with one", r.file.Program, fastpath, cpn, con)
			}
			if cpn.Rejected == 0 || cpn.Rejected == cpn.Validated || reg.Histogram("bf4_shim_assertion_ns", nil).Count() == 0 {
				t.Fatalf("%s, fastpath=%v: stream too tame: %+v", r.file.Program, fastpath, cpn)
			}
		}
	}
}

// FuzzFastpath: the headline oracle. Arbitrary byte strings decode into
// update streams; fast and slow tiers must stay byte-identical on
// decisions, messages and shadow state, and both must refuse a malformed
// update at the boundary.
func FuzzFastpath(f *testing.F) {
	// Seeds (testdata/fuzz/FuzzFastpath holds the same under names): a
	// clean wide-table insert (exact/ternary/lpm keys at widths 64/63/64/1),
	// two v6 inserts at 65 and 128 bits,
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
	// v6 at the limb boundaries: 2^64, all ones masked by 2^63, 2^64-1
	// under a 64-bit prefix, all 128 ones, zero under the full mask, 2^64
	// under the whole prefix, set6 with addr 2^64-1 (below key3 under
	// mask5: rejected) — then a v6 entry whose 65-bit ternary key has no
	// mask, so that it ORs to all ones (rejected).
	f.Add([]byte{0x03, 0x01, 0xf3, 0xf4, 0x02, 0xf1, 0xf2, 0x41, 0xf4, 0xf0, 0x01, 0xf3, 0x81, 0x01, 0xf2, 0x01, 0x00, 0x00})
	f.Add([]byte{0x03, 0x01, 0x05, 0x01, 0x01, 0xf0, 0x00, 0xf0, 0x00, 0xf0, 0xf2, 0x00, 0xf0, 0x00, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		cp := widthCompiled(t)
		d := newDiffSet(t, cp)
		fd := &byteFeed{data: data}
		n := 1 + len(data)/8
		if n > 64 {
			n = 64
		}
		for i := 0; i < n; i++ {
			u, malformed := fuzzUpdate(cp.file, fd)
			d.applyUpdate(t, u, malformed)
		}
		d.finish(t)
	})
}
