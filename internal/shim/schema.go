package shim

import (
	"fmt"
	"math/big"

	"bf4/internal/dataplane"
	"bf4/internal/spec"
)

// This file is the shim's boundary: the shape an update must have before
// anything behind it — the binders and both evaluation tiers, the shadow
// state, the journal, dataplane.Interp over a Snapshot — looks at it. A
// P4Runtime target refuses an entry whose action the table does not list,
// whose parameters are not the action's, or whose values do not fit their
// declared widths; a shim that admitted one would hold a shadow state the
// switch does not. Validate, Apply, ApplyBatch and the wire reach the
// check through validateLocked; a state directory is held to it record by
// record when it is loaded (persist.go).

// table is Compile's view of one table: its schema as the check reads it,
// and the conditions clustered on it with their binding plan (fastpath.go).
type table struct {
	ts      *spec.TableSchema
	actions map[string]*action
	plan
}

// action is one of a table's actions; run is what action_run reads for an
// entry that selects it.
type action struct {
	*spec.ActionSchema
	run *big.Int
}

func newTable(ts *spec.TableSchema) *table {
	tb := &table{ts: ts, actions: make(map[string]*action, len(ts.Actions))}
	for _, a := range ts.Actions {
		tb.actions[a.Name] = &action{a, big.NewInt(int64(a.Index))}
	}
	return tb
}

// fits reports whether v is a width-bit value, in [0, 2^width).
func fits(v *big.Int, width int) bool {
	return v != nil && v.Sign() >= 0 && v.BitLen() <= width
}

// check resolves the table and the entry's action of an update that has
// the shape the table's schema gives it, and says why for one that has not.
func (cp *Compiled) check(u *Update) (*table, *action, string) {
	tb := cp.tables[u.Table]
	switch {
	case tb == nil:
		return nil, nil, "unknown table"
	case u.Entry == nil && u.SetDefault == nil:
		return nil, nil, "empty update"
	}
	if d := u.SetDefault; d != nil {
		if _, reason := tb.checkCall(d.Action, d.Params); reason != "" {
			return nil, nil, reason
		}
	}
	if u.Entry == nil {
		return tb, nil, ""
	}
	act, reason := tb.checkEntry(u.Entry)
	return tb, act, reason
}

func (tb *table) checkEntry(e *dataplane.Entry) (*action, string) {
	if len(e.Keys) != len(tb.ts.Keys) {
		return nil, fmt.Sprintf("entry has %d keys, table has %d", len(e.Keys), len(tb.ts.Keys))
	}
	for j := range e.Keys {
		k, w := &e.Keys[j], tb.ts.Keys[j].Width
		switch {
		case !fits(k.Value, w):
			return nil, fmt.Sprintf("key %d: value does not fit the key's %d bits", j, w)
		case k.Mask != nil && !fits(k.Mask, w) && k.Mask.Cmp(fullMask) != 0:
			return nil, fmt.Sprintf("key %d: mask is neither -1 nor a value of the key's %d bits", j, w)
		case k.PrefixLen < -1 || k.PrefixLen > w:
			return nil, fmt.Sprintf("key %d: prefix length %d is outside the key's %d bits", j, k.PrefixLen, w)
		}
	}
	return tb.checkCall(e.Action, e.Params)
}

// checkCall checks an action and its arguments, of an entry or of a
// runtime default.
func (tb *table) checkCall(name string, params []*big.Int) (*action, string) {
	act := tb.actions[name]
	if act == nil {
		return nil, fmt.Sprintf("table has no action %q", name)
	}
	if len(params) != len(act.Params) {
		return nil, fmt.Sprintf("action %s takes %d parameters, got %d", name, len(act.Params), len(params))
	}
	for i, p := range params {
		if w := act.Params[i].Width; !fits(p, w) {
			return nil, fmt.Sprintf("action %s: parameter %s does not fit its %d bits", name, act.Params[i].Name, w)
		}
	}
	return act, ""
}
