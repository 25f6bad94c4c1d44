package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Span is one node of a hierarchical phase trace: a named timed region
// with ordered children and optional integer annotations (check counts,
// bug counts, ...). Spans are concurrency-safe: children may be started
// from multiple goroutines (worker pools), and annotations may be set
// while siblings run. A nil *Span is the disabled tracer; every method is
// a no-op and StartChild returns nil, so subtrees switch off together.
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	dur      time.Duration
	ended    bool
	children []*Span
	metrics  []spanMetric
}

type spanMetric struct {
	key string
	val int64
}

// StartSpan begins a new root span.
func StartSpan(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// StartChild begins a child span under s (nil on a nil receiver).
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End stops the span's clock. Idempotent; later calls keep the first
// duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
	}
	s.mu.Unlock()
}

// Duration returns the span's duration: the recorded one after End, the
// running elapsed time before.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return s.dur
	}
	return time.Since(s.start)
}

// Name returns the span's name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// SetMetric attaches (or overwrites) an integer annotation rendered next
// to the span, e.g. checks=12.
func (s *Span) SetMetric(key string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.metrics {
		if s.metrics[i].key == key {
			s.metrics[i].val = v
			return
		}
	}
	s.metrics = append(s.metrics, spanMetric{key, v})
}

// Children returns a snapshot of the span's children in start order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Render writes the span tree as a human-readable phase breakdown:
//
//	bf4 simple_nat                 41.3ms
//	  compile                      12.1ms
//	    parse                       1.2ms
//	  findbugs                     18.7ms  checks=12 reachable=5
func (s *Span) Render(w io.Writer) {
	if s == nil {
		return
	}
	s.render(w, 0)
}

// RenderString is Render into a string ("" on nil).
func (s *Span) RenderString() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	s.Render(&b)
	return b.String()
}

func (s *Span) render(w io.Writer, depth int) {
	s.mu.Lock()
	name := s.name
	dur := s.dur
	if !s.ended {
		dur = time.Since(s.start)
	}
	metrics := append([]spanMetric(nil), s.metrics...)
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()

	label := strings.Repeat("  ", depth) + name
	fmt.Fprintf(w, "%-40s %12s", label, dur.Round(time.Microsecond))
	for _, m := range metrics {
		fmt.Fprintf(w, "  %s=%d", m.key, m.val)
	}
	fmt.Fprintln(w)
	for _, c := range children {
		c.render(w, depth+1)
	}
}

// ----------------------------------------------------------- phases

// StartPhase times one pipeline phase against both halves of the layer:
// a child span of parent and a bf4_phase_<name>_ns_total counter in reg.
// The returned span carries any phase annotations; call done() when the
// phase completes. Either half may be nil; with both nil the calls reduce
// to two nil checks and no clock reads.
func StartPhase(reg *Registry, parent *Span, name string) (sp *Span, done func()) {
	if reg == nil && parent == nil {
		return nil, func() {}
	}
	sp = parent.StartChild(name)
	ctr := reg.Counter("bf4_phase_" + name + "_ns_total")
	start := time.Now()
	return sp, func() {
		sp.End()
		ctr.Add(time.Since(start).Nanoseconds())
	}
}
