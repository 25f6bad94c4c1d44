package shim

import (
	"errors"
	"fmt"
	"math/big"
	"slices"
	"testing"

	"bf4/internal/dataplane"
	"bf4/internal/smt"
	"bf4/internal/spec"
)

// refShim is the differential harness's third evaluator: the shim's
// decisions recomputed from the spec file alone, with every value a
// big.Int. It shares no plan, binding, register or filter with Compiled,
// and reads a dataplane.Value only through its limbs (refBig), so a
// fault in the limb representation, in the binders or in either tier's
// evaluation shows as a disagreement with it.
type refShim struct {
	file   *spec.File
	tables map[string]*spec.TableSchema
	terms  map[*spec.Assertion][]*smt.Term
	shadow map[string][]*dataplane.Entry
}

// refVerdict is what the reference makes of an update: accepted, refused
// at the boundary, or matching forbidden term i of an assertion.
type refVerdict struct {
	boundary  bool
	assertion *spec.Assertion
	i         int
}

func newRefShim(t testing.TB, file *spec.File) *refShim {
	r := &refShim{file: file, tables: map[string]*spec.TableSchema{}, terms: map[*spec.Assertion][]*smt.Term{}, shadow: map[string][]*dataplane.Entry{}}
	for _, ts := range file.Tables {
		r.tables[ts.Name] = ts // a later schema of a name replaces an earlier one
	}
	f := smt.NewFactory()
	for _, a := range file.Assertions {
		for i := range a.Forbidden {
			term, err := a.ParseForbidden(f, i)
			if err != nil {
				t.Fatal(err)
			}
			r.terms[a] = append(r.terms[a], term)
		}
	}
	return r
}

// refBig is v read limb by limb, most significant first.
func refBig(v dataplane.Value) *big.Int {
	x := new(big.Int)
	for i := v.Limbs() - 1; i >= 0; i-- {
		x.Lsh(x, 64).Or(x, new(big.Int).SetUint64(v.Limb(i)))
	}
	return x
}

func refFits(v dataplane.Value, w int) bool { return refBig(v).BitLen() <= w }

// apply judges updates in order, each against the state the ones before
// it left, and keeps their entries only if all are accepted. It returns
// the position and verdict of the first refused one, or -1.
func (r *refShim) apply(updates []*Update) (int, refVerdict) {
	n := map[string]int{}
	for i, u := range updates {
		if v := r.judge(u); v != (refVerdict{}) {
			for table, k := range n {
				r.shadow[table] = r.shadow[table][:len(r.shadow[table])-k]
			}
			return i, v
		}
		if u.Entry != nil {
			r.shadow[u.Table] = append(r.shadow[u.Table], u.Entry)
			n[u.Table]++
		}
	}
	return -1, refVerdict{}
}

func (r *refShim) judge(u *Update) refVerdict {
	ts := r.tables[u.Table]
	if ts == nil || u.Entry == nil && u.SetDefault == nil {
		return refVerdict{boundary: true}
	}
	if d := u.SetDefault; d != nil {
		a := refAction(ts, d.Action)
		if !refCallFits(a, d.Params) || a.Buggy {
			return refVerdict{boundary: true}
		}
	}
	e := u.Entry
	if e == nil {
		return refVerdict{}
	}
	if len(e.Keys) != len(ts.Keys) || !refCallFits(refAction(ts, e.Action), e.Params) {
		return refVerdict{boundary: true}
	}
	for j, k := range e.Keys {
		w := ts.Keys[j].Width
		switch {
		case !refFits(k.Value, w), k.PrefixLen < -1, k.PrefixLen > w,
			k.MaskKind > dataplane.FullMask, k.MaskKind == dataplane.MaskBits && !refFits(k.Mask, w):
			return refVerdict{boundary: true}
		}
	}
	for _, a := range r.file.Assertions {
		other := a.Linked
		switch {
		case a.Table == u.Table && a.Linked == u.Table:
			other = ""
		case a.Linked == u.Table:
			other = a.Table
		case a.Table != u.Table:
			continue
		}
		for i, term := range r.terms[a] {
			if r.violated(term, ts, e, other) {
				return refVerdict{assertion: a, i: i}
			}
		}
	}
	return refVerdict{}
}

func refAction(ts *spec.TableSchema, name string) *spec.ActionSchema {
	for _, a := range ts.Actions {
		if a.Name == name {
			return a
		}
	}
	return nil
}

func refCallFits(a *spec.ActionSchema, params []dataplane.Value) bool {
	if a == nil || len(params) != len(a.Params) {
		return false
	}
	for i, p := range params {
		if !refFits(p, a.Params[i].Width) {
			return false
		}
	}
	return true
}

// violated evaluates term with ts's variables bound to e and, when table
// other has shadow entries, each of them in turn with its variables bound
// too: the term is violated if one completes it. (A term that reads none
// of other's variables is the same under every one of them.)
func (r *refShim) violated(term *smt.Term, ts *spec.TableSchema, e *dataplane.Entry, other string) bool {
	env := smt.Env{}
	refBind(env, ts, e)
	if other == "" || len(r.shadow[other]) == 0 {
		return smt.EvalBool(term, env)
	}
	for _, oe := range r.shadow[other] {
		scan := smt.Env{}
		refBind(scan, r.tables[other], oe)
		for name, v := range env {
			scan[name] = v
		}
		if smt.EvalBool(term, scan) {
			return true
		}
	}
	return false
}

// refBind binds what entry e of table ts sets: hit, the action's index,
// every key, the masks of ternary and lpm keys, and the parameters of the
// action e runs.
func refBind(env smt.Env, ts *spec.TableSchema, e *dataplane.Entry) {
	p := ts.Prefix
	env.SetBool(p+".hit", true)
	a := refAction(ts, e.Action)
	env.SetUint64(p+".action_run", uint64(a.Index))
	for j, k := range ts.Keys {
		km := e.Keys[j]
		env[fmt.Sprintf("%s.key%d", p, j)] = refBig(km.Value)
		mask := smt.Mask(k.Width)
		switch {
		case k.MatchKind == "ternary" && km.MaskKind == dataplane.MaskBits:
			mask = refBig(km.Mask)
		case k.MatchKind == "lpm" && km.PrefixLen >= 0:
			mask.Xor(mask, smt.Mask(k.Width-km.PrefixLen))
		case k.MatchKind != "ternary" && k.MatchKind != "lpm":
			continue
		}
		env[fmt.Sprintf("%s.mask%d", p, j)] = mask
	}
	for i, ps := range a.Params {
		env[p+"."+a.Name+"."+ps.Name] = refBig(e.Params[i])
	}
}

// diffSet is one compiled annotation set under the three evaluators of
// the differential harness: the shim with its fast path on (the
// multi-limb register machine), the shim with it off (the term tier), and
// the big.Int reference.
type diffSet struct {
	fast, slow *Shim
	ref        *refShim
}

func newDiffSet(t testing.TB, cp *Compiled) *diffSet {
	t.Helper()
	fast, slow := diffPair(t, cp)
	return &diffSet{fast: fast, slow: slow, ref: newRefShim(t, cp.file)}
}

// apply applies updates to every evaluator — as one atomic batch when
// batch is set — and requires the same outcome of each: byte-identical
// texts from the two tiers, and the reference's verdict on the same
// update. It returns the fast tier's error.
func (d *diffSet) apply(t testing.TB, updates []*Update, batch bool) error {
	t.Helper()
	var errF, errS error
	if batch {
		errF, errS = d.fast.ApplyBatch(updates), d.slow.ApplyBatch(updates)
	} else {
		errF, errS = d.fast.Apply(updates[0]), d.slow.Apply(updates[0])
	}
	switch {
	case (errF == nil) != (errS == nil):
		t.Fatalf("tiers disagree on update to %s: fast=%v slow=%v", updates[0].Table, errF, errS)
	case errF != nil && errF.Error() != errS.Error():
		t.Fatalf("tiers reject with different messages:\nfast: %s\nslow: %s", errF, errS)
	}
	at, want := d.ref.apply(updates)
	var got refVerdict
	var re *RejectionError
	if errors.As(errF, &re) {
		got = refVerdict{boundary: re.Assertion == nil, assertion: re.Assertion}
		if re.Assertion != nil {
			got.i = slices.Index(re.Assertion.Forbidden, re.Forbidden)
		}
	}
	var be *BatchError
	if errors.As(errF, &be) && be.Index != at {
		t.Fatalf("batch refused at update %d, the big.Int reference refuses update %d", be.Index, at)
	}
	if got != want || (errF == nil) != (at < 0) {
		t.Fatalf("update to %s: the shim says %v, the big.Int reference %+v at %d", updates[0].Table, errF, want, at)
	}
	return errF
}

// finish requires the evaluators' end states to match: the two tiers'
// snapshots byte for byte, the reference's shadow entry for entry.
func (d *diffSet) finish(t testing.TB) {
	t.Helper()
	finishDiff(t, d.fast, d.slow)
	snap := d.fast.Snapshot()
	for _, ts := range d.ref.file.Tables {
		if got, want := snap.Entries[ts.Name], d.ref.shadow[ts.Name]; !slices.Equal(got, want) {
			t.Fatalf("table %s: the shim holds %d entries, the big.Int reference %d", ts.Name, len(got), len(want))
		}
	}
}
