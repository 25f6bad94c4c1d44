package obs

import (
	"strings"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if got := r.CounterValue("c_total"); got != 5 {
		t.Fatalf("CounterValue = %d, want 5", got)
	}
	// Same name returns the same counter.
	if r.Counter("c_total") != c {
		t.Fatal("second lookup returned a different counter")
	}

	g := r.Gauge("g")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}

	h := r.Histogram("h", []int64{10, 100})
	for _, v := range []int64{1, 10, 11, 1000} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("hist count = %d, want 4", h.Count())
	}
	if h.Sum() != 1022 {
		t.Fatalf("hist sum = %d, want 1022", h.Sum())
	}
	bounds, counts := h.snapshot()
	if len(bounds) != 2 || len(counts) != 3 {
		t.Fatalf("snapshot shape: %v %v", bounds, counts)
	}
	// le=10 gets {1,10}, le=100 gets {11}, +Inf gets {1000}.
	if counts[0] != 2 || counts[1] != 1 || counts[2] != 1 {
		t.Fatalf("bucket counts = %v, want [2 1 1]", counts)
	}
}

// TestNilRegistryIsNoOp pins the disabled-layer contract: every operation
// on nil receivers is safe and free of observable effects.
func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total")
	if c != nil {
		t.Fatal("nil registry returned a live counter")
	}
	c.Inc()
	c.Add(10)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	g := r.Gauge("g")
	g.Set(3)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	h := r.Histogram("h", CountBuckets)
	h.Observe(42)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram recorded a sample")
	}
	if r.CounterValue("x_total") != 0 || r.GaugeValue("g") != 0 {
		t.Fatal("nil registry reads nonzero")
	}
	r.RecordCheck(CheckRecord{Ns: 1})
	if r.SlowestChecks() != nil {
		t.Fatal("nil registry kept a check")
	}
}

// TestSlowestChecks: the table keeps the ten largest checks by time,
// slowest first, ties in arrival order, and shows in the JSON document only
// once something was recorded.
func TestSlowestChecks(t *testing.T) {
	r := NewRegistry()
	if data, _ := r.JSON(); strings.Contains(string(data), "slowest_checks") {
		t.Fatal("empty table rendered")
	}
	for _, ns := range []int64{5, 90, 20, 70, 20, 100, 30, 10, 60, 40, 80, 50, 1} {
		r.RecordCheck(CheckRecord{Phase: "findbugs", Solver: "shard 0", Node: int(ns), Ns: ns})
	}
	got := r.SlowestChecks()
	want := []int64{100, 90, 80, 70, 60, 50, 40, 30, 20, 20}
	if len(got) != len(want) {
		t.Fatalf("kept %d checks, want %d", len(got), len(want))
	}
	for i, c := range got {
		if c.Ns != want[i] || c.Node != int(want[i]) {
			t.Fatalf("entry %d is %+v, want the %d ns check", i, c, want[i])
		}
	}
	data, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"slowest_checks"`, `"phase": "findbugs"`, `"solver": "shard 0"`, `"node": 100`, `"first": false`, `"cnf_vars"`, `"cnf_clauses"`, `"decisions"`, `"propagations"`, `"conflicts"`, `"ns": 100`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("JSON document lacks %s", key)
		}
	}
}

func TestSpanTree(t *testing.T) {
	root := StartSpan("run")
	a := root.StartChild("compile")
	aa := a.StartChild("parse")
	aa.End()
	a.End()
	b := root.StartChild("findbugs")
	b.SetMetric("checks", 12)
	b.SetMetric("checks", 13) // overwrite
	b.SetMetric("reachable", 5)
	b.End()
	root.End()

	kids := root.Children()
	if len(kids) != 2 || kids[0].Name() != "compile" || kids[1].Name() != "findbugs" {
		t.Fatalf("children = %v", kids)
	}
	out := root.RenderString()
	for _, want := range []string{"run", "  compile", "    parse", "  findbugs", "checks=13", "reachable=5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "checks=12") {
		t.Fatalf("SetMetric did not overwrite:\n%s", out)
	}
	if root.Duration() <= 0 {
		t.Fatal("root duration not recorded")
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	s := StartSpan("x")
	s.End()
	d := s.Duration()
	time.Sleep(2 * time.Millisecond)
	s.End()
	if s.Duration() != d {
		t.Fatal("second End changed the duration")
	}
}

func TestNilSpanIsNoOp(t *testing.T) {
	var s *Span
	c := s.StartChild("x")
	if c != nil {
		t.Fatal("nil span produced a live child")
	}
	c.End()
	c.SetMetric("k", 1)
	if c.RenderString() != "" {
		t.Fatal("nil span renders output")
	}
	if c.Duration() != 0 || c.Name() != "" || c.Children() != nil {
		t.Fatal("nil span has state")
	}
}

func TestStartPhase(t *testing.T) {
	reg := NewRegistry()
	root := StartSpan("root")
	sp, done := StartPhase(reg, root, "parse")
	if sp == nil {
		t.Fatal("phase span missing")
	}
	sp.SetMetric("nodes", 7)
	done()
	if got := reg.CounterValue("bf4_phase_parse_ns_total"); got <= 0 {
		t.Fatalf("phase counter = %d, want > 0", got)
	}
	if kids := root.Children(); len(kids) != 1 || kids[0].Name() != "parse" {
		t.Fatalf("phase span not attached: %v", kids)
	}

	// Fully disabled: no span, no counter, no panic.
	sp2, done2 := StartPhase(nil, nil, "x")
	if sp2 != nil {
		t.Fatal("disabled phase returned a span")
	}
	done2()

	// Half-enabled: counter only.
	sp3, done3 := StartPhase(reg, nil, "lower")
	if sp3 != nil {
		t.Fatal("span should be nil without a parent")
	}
	done3()
	if reg.CounterValue("bf4_phase_lower_ns_total") <= 0 {
		t.Fatal("counter-only phase did not record")
	}
}
