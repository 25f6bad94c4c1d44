package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// WritePrometheus renders every metric in the Prometheus text exposition
// format (version 0.0.4), metrics sorted by name within each kind —
// counters, then gauges, then histograms — so the output is stable for a
// fixed metric state. A nil registry writes nothing: the disabled layer
// has no exposition at all.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	counters, gauges, hists := r.names()
	// Counters and gauges may carry a label block (see LabeledName); all
	// series of one family share a single TYPE line naming the family.
	if err := writeScalarFamilies(w, counters, "counter", r.CounterValue); err != nil {
		return err
	}
	if err := writeScalarFamilies(w, gauges, "gauge", r.GaugeValue); err != nil {
		return err
	}
	for _, name := range hists {
		r.mu.Lock()
		h := r.hists[name]
		r.mu.Unlock()
		bounds, counts := h.snapshot()
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
			return err
		}
		cum := int64(0)
		for i, b := range bounds {
			cum += counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, b, cum); err != nil {
				return err
			}
		}
		cum += counts[len(counts)-1]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", name, h.Sum(), name, h.Count()); err != nil {
			return err
		}
	}
	return nil
}

// writeScalarFamilies renders counters or gauges grouped by metric
// family: one TYPE line per base name, every series (labeled or not) of
// that family directly beneath it, families in first-appearance order of
// the sorted name list.
func writeScalarFamilies(w io.Writer, names []string, kind string, value func(string) int64) error {
	byBase := map[string][]string{}
	var order []string
	for _, name := range names {
		base := baseName(name)
		if _, ok := byBase[base]; !ok {
			order = append(order, base)
		}
		byBase[base] = append(byBase[base], name)
	}
	for _, base := range order {
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, kind); err != nil {
			return err
		}
		for _, name := range byBase[base] {
			if _, err := fmt.Fprintf(w, "%s %d\n", name, value(name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// HistogramJSON is the JSON shape of one histogram.
type HistogramJSON struct {
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Buckets []BucketJSON `json:"buckets"`
}

// BucketJSON is one cumulative histogram bucket; Le is the upper bound as
// a decimal string, "+Inf" for the last bucket.
type BucketJSON struct {
	Le    string `json:"le"`
	Count int64  `json:"count"`
}

// metricsJSON is the -metrics-json document shape.
type metricsJSON struct {
	Counters   map[string]int64         `json:"counters"`
	Gauges     map[string]int64         `json:"gauges"`
	Histograms map[string]HistogramJSON `json:"histograms"`
	// SlowestChecks is present once a solver check has been recorded.
	SlowestChecks []CheckRecord `json:"slowest_checks,omitempty"`
}

// JSON renders the registry as an indented JSON document with stable key
// ordering (encoding/json sorts map keys) and fixed bucket boundaries. A
// nil registry returns nil bytes: the disabled layer emits nothing.
func (r *Registry) JSON() ([]byte, error) {
	if r == nil {
		return nil, nil
	}
	counters, gauges, hists := r.names()
	doc := metricsJSON{
		Counters:      map[string]int64{},
		Gauges:        map[string]int64{},
		Histograms:    map[string]HistogramJSON{},
		SlowestChecks: r.SlowestChecks(),
	}
	for _, name := range counters {
		doc.Counters[name] = r.CounterValue(name)
	}
	for _, name := range gauges {
		doc.Gauges[name] = r.GaugeValue(name)
	}
	for _, name := range hists {
		r.mu.Lock()
		h := r.hists[name]
		r.mu.Unlock()
		bounds, counts := h.snapshot()
		hj := HistogramJSON{Count: h.Count(), Sum: h.Sum()}
		cum := int64(0)
		for i, b := range bounds {
			cum += counts[i]
			hj.Buckets = append(hj.Buckets, BucketJSON{Le: strconv.FormatInt(b, 10), Count: cum})
		}
		cum += counts[len(counts)-1]
		hj.Buckets = append(hj.Buckets, BucketJSON{Le: "+Inf", Count: cum})
		doc.Histograms[name] = hj
	}
	return json.MarshalIndent(doc, "", "  ")
}
