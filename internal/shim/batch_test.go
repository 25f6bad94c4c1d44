package shim

import (
	"errors"
	"testing"

	"bf4/internal/dataplane"
	"bf4/internal/spec"
)

// tinySpec is a hand-written two-table spec with one single-table and
// one linked-table assertion, cheap enough for protocol-level tests (no
// compiler run). Table t forbids action "act" (index 2) with key0 == 0;
// a linked assertion forbids t.key0 == 5 whenever u holds key0 == 7.
func tinySpec() *spec.File {
	return &spec.File{
		Program: "tiny",
		Tables: []*spec.TableSchema{
			{
				Name:   "t",
				Prefix: "pcn_t$0",
				Keys:   []spec.KeySchema{{Path: "x", MatchKind: "exact", Width: 16}},
				Actions: []*spec.ActionSchema{
					{Name: "NoAction", Index: 0},
					{Name: "bad", Index: 1, Buggy: true},
					{Name: "act", Index: 2},
				},
				Default: "NoAction",
			},
			{
				Name:   "u",
				Prefix: "pcn_u$0",
				Keys:   []spec.KeySchema{{Path: "y", MatchKind: "exact", Width: 16}},
				Actions: []*spec.ActionSchema{
					{Name: "NoAction", Index: 0},
				},
				Default: "NoAction",
			},
		},
		Assertions: []*spec.Assertion{
			{
				Table:  "t",
				Source: "test-single",
				Forbidden: []string{
					"(and (= |pcn_t$0.action_run| (_ bv2 8)) (= |pcn_t$0.key0| (_ bv0 16)))",
				},
				Vars: map[string]int{"pcn_t$0.action_run": 8, "pcn_t$0.key0": 16},
			},
			{
				Table:  "t",
				Linked: "u",
				Source: "test-linked",
				Forbidden: []string{
					"(and (= |pcn_t$0.key0| (_ bv5 16)) |pcn_u$0.hit| (= |pcn_u$0.key0| (_ bv7 16)))",
				},
				Vars: map[string]int{"pcn_t$0.key0": 16, "pcn_u$0.hit": 0, "pcn_u$0.key0": 16},
			},
		},
	}
}

func tinyShim(t *testing.T) *Shim {
	t.Helper()
	sh, err := New(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

func insertT(key int64, action string) *Update {
	return &Update{Table: "t", Entry: &dataplane.Entry{
		Keys:   []dataplane.KeyMatch{dataplane.NewExact(key)},
		Action: action,
	}}
}

func insertU(key int64) *Update {
	return &Update{Table: "u", Entry: &dataplane.Entry{
		Keys:   []dataplane.KeyMatch{dataplane.NewExact(key)},
		Action: "NoAction",
	}}
}

// TestUpdateWithEntryAndDefaultChecksBoth: an update carrying a default
// change next to its entry (the journal's encoding allows it, the wire
// never builds it) has both judged. The default's policy check used to
// end validation, and the entry was committed as it came.
func TestUpdateWithEntryAndDefaultChecksBoth(t *testing.T) {
	sh := tinyShim(t)
	u := insertT(0, "act") // violates the single-table assertion
	u.SetDefault = &dataplane.DefaultAction{Action: "NoAction"}
	var re *RejectionError
	if err := sh.Apply(u); !errors.As(err, &re) || re.Assertion == nil {
		t.Fatalf("Apply = %v, want the entry refused by its assertion", err)
	}
	if sh.ShadowSize("t") != 0 || len(sh.Snapshot().Defaults) != 0 {
		t.Fatal("the refused update left an entry or a default behind")
	}
	u.Entry.Keys[0] = dataplane.NewExact(1)
	if err := sh.Apply(u); err != nil {
		t.Fatal(err)
	}
	if sh.ShadowSize("t") != 1 || sh.Snapshot().Defaults["t"] == nil {
		t.Fatal("the admitted update did not commit both parts")
	}
}

func TestBatchAllOrNothing(t *testing.T) {
	sh := tinyShim(t)
	err := sh.ApplyBatch([]*Update{
		insertT(1, "NoAction"),
		insertT(2, "NoAction"),
		insertT(0, "act"), // violates the single-table assertion
	})
	if err == nil {
		t.Fatal("batch with a forbidden update accepted")
	}
	var be *BatchError
	if !errors.As(err, &be) || be.Index != 2 || be.Size != 3 {
		t.Fatalf("unexpected batch error: %v", err)
	}
	var re *RejectionError
	if !errors.As(err, &re) {
		t.Fatalf("batch error does not wrap a rejection: %v", err)
	}
	if sh.ShadowSize("t") != 0 {
		t.Fatalf("rolled-back batch left %d entries", sh.ShadowSize("t"))
	}

	// The same batch without the offender commits atomically.
	if err := sh.ApplyBatch([]*Update{insertT(1, "NoAction"), insertT(2, "NoAction")}); err != nil {
		t.Fatal(err)
	}
	if sh.ShadowSize("t") != 2 {
		t.Fatalf("shadow size = %d", sh.ShadowSize("t"))
	}
}

func TestBatchSeesEarlierBatchUpdates(t *testing.T) {
	sh := tinyShim(t)
	// u:7 then t:5 violates the linked assertion — and the violation is
	// only visible if t:5 is validated against the batch's own u:7.
	err := sh.ApplyBatch([]*Update{insertU(7), insertT(5, "NoAction")})
	if err == nil {
		t.Fatal("linked violation across a batch accepted")
	}
	var be *BatchError
	if !errors.As(err, &be) || be.Index != 1 {
		t.Fatalf("unexpected error: %v", err)
	}
	if sh.ShadowSize("u") != 0 || sh.ShadowSize("t") != 0 {
		t.Fatal("rollback incomplete")
	}
	// Without u:7 in the state, t:5 is fine.
	if err := sh.ApplyBatch([]*Update{insertT(5, "NoAction")}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchRollsBackDefaults(t *testing.T) {
	sh := tinyShim(t)
	err := sh.ApplyBatch([]*Update{
		{Table: "t", SetDefault: &dataplane.DefaultAction{Action: "NoAction"}},
		insertT(0, "act"), // rejected
	})
	if err == nil {
		t.Fatal("batch accepted")
	}
	if d := sh.Snapshot().Defaults["t"]; d != nil {
		t.Fatalf("default survived rollback: %+v", d)
	}
	// A clean batch installs the default into the shadow snapshot.
	if err := sh.ApplyBatch([]*Update{
		{Table: "t", SetDefault: &dataplane.DefaultAction{Action: "NoAction"}},
	}); err != nil {
		t.Fatal(err)
	}
	if d := sh.Snapshot().Defaults["t"]; d == nil || d.Action != "NoAction" {
		t.Fatalf("default not recorded: %+v", d)
	}
}

func TestApplyWithKeyDedup(t *testing.T) {
	sh := tinyShim(t)
	if err := sh.ApplyWithKey("c1:1", insertT(9, "NoAction")); err != nil {
		t.Fatal(err)
	}
	// A retry of the same request ID must not double-apply, even if the
	// (buggy) retransmission carries different bytes.
	if err := sh.ApplyWithKey("c1:1", insertT(9, "NoAction")); err != nil {
		t.Fatal(err)
	}
	if sh.ShadowSize("t") != 1 {
		t.Fatalf("retry double-applied: %d entries", sh.ShadowSize("t"))
	}

	// Rejected outcomes replay too.
	err1 := sh.ApplyWithKey("c1:2", insertT(0, "act"))
	if err1 == nil {
		t.Fatal("forbidden update accepted")
	}
	err2 := sh.ApplyWithKey("c1:2", insertT(0, "act"))
	if err2 == nil || err2.Error() != err1.Error() {
		t.Fatalf("replayed outcome differs: %v vs %v", err1, err2)
	}
	st := sh.Stats()
	// The replay is served from the window: validation ran twice total
	// (one accept + one reject), not three times.
	if st.Validated != 2 || st.Rejected != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestDedupWindowEviction(t *testing.T) {
	sh := tinyShim(t)
	sh.SetDedupWindow(2)
	for i, key := range []string{"a", "b", "c"} {
		if err := sh.ApplyWithKey(key, insertT(int64(10+i), "NoAction")); err != nil {
			t.Fatal(err)
		}
	}
	// "a" has been evicted: replaying it re-applies (the window is a
	// bounded guarantee, not an unbounded log).
	if err := sh.ApplyWithKey("a", insertT(10, "NoAction")); err != nil {
		t.Fatal(err)
	}
	if sh.ShadowSize("t") != 4 {
		t.Fatalf("shadow size = %d, want 4", sh.ShadowSize("t"))
	}
	// "c" is still in the window.
	if err := sh.ApplyWithKey("c", insertT(12, "NoAction")); err != nil {
		t.Fatal(err)
	}
	if sh.ShadowSize("t") != 4 {
		t.Fatal("windowed key re-applied")
	}
}

func TestReservoirBounds(t *testing.T) {
	r := newReservoir(10)
	for i := int64(1); i <= 100; i++ {
		r.add(i)
	}
	st := r.snapshot()
	if st.Count != 100 || st.MaxNs != 100 {
		t.Fatalf("aggregates: %+v", st)
	}
	if len(st.SampleNs) != 10 {
		t.Fatalf("window size %d", len(st.SampleNs))
	}
	for i, v := range st.SampleNs {
		if v != int64(91+i) {
			t.Fatalf("window[%d] = %d, want %d (most recent, oldest first)", i, v, 91+i)
		}
	}
	if st.MeanNs != 50.5 {
		t.Fatalf("mean = %v", st.MeanNs)
	}
}
