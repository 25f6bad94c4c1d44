package main

import (
	"encoding/json"
	"os"
	"time"

	"bf4/internal/obs"
)

// span is one interval of a traced operation: either recorded by the
// harness around a call into a layer's public functions, or adopted from
// the phase tree the verifier builds under driver.Config.Trace. Parent is
// an index into the tracer's span list (-1 for a root); spans of one
// operation share Run. obs.Span exposes a phase's duration but not when it
// began, so an adopted phase has Start -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	Dur    int64  `json:"dur_ns"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
}

// tracer keeps spans in memory and writes them out when the workload
// ends. A nil tracer records nothing, which is how untraced operations
// skip the cost. It is used from the harness's one driving goroutine only.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, parent, run int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Run: run})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].Dur = int64(time.Since(t.epoch)) - t.spans[id].Start
}

// adopt files the phases the program recorded under root, once they have
// ended, as descendants of the harness span parent, in start order.
func (t *tracer) adopt(root *obs.Span, parent, run int) {
	for _, c := range root.Children() {
		t.spans = append(t.spans, span{Name: c.Name(), Start: -1, Dur: int64(c.Duration()), Parent: parent, Run: run})
		t.adopt(c, len(t.spans)-1, run)
	}
}

// sum totals the spans whose names, from a root down, are exactly path.
func (t *tracer) sum(path ...string) int64 {
	var ns int64
	for _, s := range t.spans {
		id, i := s.Parent, len(path)-1
		if s.Name != path[i] {
			continue
		}
		for i--; i >= 0 && id >= 0 && t.spans[id].Name == path[i]; i-- {
			id = t.spans[id].Parent
		}
		if i < 0 && id < 0 {
			ns += s.Dur
		}
	}
	return ns
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// reportOverhead sets trace.overhead_share: how much longer the median
// traced operation took than the median untraced one of the same run.
// Tracing here means everything a traced operation switches on: the
// harness's spans, the program's own phase spans, and its obs.Registry.
func reportOverhead(m *meter, untraced, traced []time.Duration) {
	u, t := quantile(untraced, 0.5), quantile(traced, 0.5)
	m.set("trace.overhead_share", float64(t-u)/float64(u))
	m.note("tracing overhead: op p50 %.3f ms traced (n=%d) against %.3f ms untraced (n=%d) in this run", ms(t), len(traced), ms(u), len(untraced))
}
