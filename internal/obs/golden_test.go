package obs

import (
	"strings"
	"testing"
)

// goldenRegistry builds a registry with a deterministic metric state:
// every golden below pins the exact exposition of this state.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("bf4_solver_checks_total").Add(3)
	r.Counter("bf4_shim_updates_validated_total").Add(12)
	r.Gauge("bf4_solver_pool_retained_bytes").Set(240)
	h := r.Histogram("bf4_solver_check_conflicts", CountBuckets)
	for _, v := range []int64{0, 5, 50, 5_000, 5_000_000} {
		h.Observe(v)
	}
	return r
}

// TestPrometheusGolden pins the exact Prometheus text exposition: metric
// order (counters, gauges, histograms; each sorted by name), the fixed
// bucket boundaries, and cumulative bucket semantics. Any drift breaks
// scrapers and dashboards, so the full output is compared byte for byte.
func TestPrometheusGolden(t *testing.T) {
	var b strings.Builder
	if err := goldenRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE bf4_shim_updates_validated_total counter
bf4_shim_updates_validated_total 12
# TYPE bf4_solver_checks_total counter
bf4_solver_checks_total 3
# TYPE bf4_solver_pool_retained_bytes gauge
bf4_solver_pool_retained_bytes 240
# TYPE bf4_solver_check_conflicts histogram
bf4_solver_check_conflicts_bucket{le="1"} 1
bf4_solver_check_conflicts_bucket{le="10"} 2
bf4_solver_check_conflicts_bucket{le="100"} 3
bf4_solver_check_conflicts_bucket{le="1000"} 3
bf4_solver_check_conflicts_bucket{le="10000"} 4
bf4_solver_check_conflicts_bucket{le="100000"} 4
bf4_solver_check_conflicts_bucket{le="1000000"} 4
bf4_solver_check_conflicts_bucket{le="+Inf"} 5
bf4_solver_check_conflicts_sum 5005055
bf4_solver_check_conflicts_count 5
`
	if got := b.String(); got != want {
		t.Fatalf("prometheus exposition drifted:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestJSONGolden pins the -metrics-json document: stable key ordering
// (encoding/json sorts map keys), fixed bucket boundaries, cumulative
// bucket counts.
func TestJSONGolden(t *testing.T) {
	data, err := goldenRegistry().JSON()
	if err != nil {
		t.Fatal(err)
	}
	want := `{
  "counters": {
    "bf4_shim_updates_validated_total": 12,
    "bf4_solver_checks_total": 3
  },
  "gauges": {
    "bf4_solver_pool_retained_bytes": 240
  },
  "histograms": {
    "bf4_solver_check_conflicts": {
      "count": 5,
      "sum": 5005055,
      "buckets": [
        {
          "le": "1",
          "count": 1
        },
        {
          "le": "10",
          "count": 2
        },
        {
          "le": "100",
          "count": 3
        },
        {
          "le": "1000",
          "count": 3
        },
        {
          "le": "10000",
          "count": 4
        },
        {
          "le": "100000",
          "count": 4
        },
        {
          "le": "1000000",
          "count": 4
        },
        {
          "le": "+Inf",
          "count": 5
        }
      ]
    }
  }
}`
	if got := string(data); got != want {
		t.Fatalf("json exposition drifted:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestDisabledEmitsNothing guards the disabled path: a nil registry must
// produce zero exposition bytes on every surface.
func TestDisabledEmitsNothing(t *testing.T) {
	var r *Registry
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("nil registry wrote %d prometheus bytes: %q", b.Len(), b.String())
	}
	data, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if data != nil {
		t.Fatalf("nil registry wrote JSON: %q", data)
	}
}

// TestEmptyRegistryStable pins the empty-but-enabled exposition.
func TestEmptyRegistryStable(t *testing.T) {
	r := NewRegistry()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("empty registry wrote %q", b.String())
	}
	data, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	want := `{
  "counters": {},
  "gauges": {},
  "histograms": {}
}`
	if string(data) != want {
		t.Fatalf("empty JSON = %q, want %q", data, want)
	}
}

// TestHistogramBoundsFixedAtRegistration: a second Histogram call with
// different bounds must not change the exposition.
func TestHistogramBoundsFixedAtRegistration(t *testing.T) {
	r := NewRegistry()
	h1 := r.Histogram("h", []int64{1, 2})
	h2 := r.Histogram("h", []int64{100, 200, 300})
	if h1 != h2 {
		t.Fatal("re-registration created a new histogram")
	}
	bounds, _ := h1.snapshot()
	if len(bounds) != 2 || bounds[0] != 1 || bounds[1] != 2 {
		t.Fatalf("bounds changed on re-registration: %v", bounds)
	}
}
