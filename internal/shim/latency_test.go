package shim_test

import (
	"testing"

	"bf4/internal/driver"
	"bf4/internal/obs"
	"bf4/internal/progs"
	"bf4/internal/shim"
	"bf4/internal/trace"
)

// TestLatencyHistogramsCountEveryEvaluation: the registry's histograms
// are the shim's only latency record, so they must see every update and
// every assertion evaluation. On a switch@1 trace with rejects,
// bf4_shim_update_ns counts the validated updates and
// bf4_shim_assertion_ns the evaluations of both tiers.
func TestLatencyHistogramsCountEveryEvaluation(t *testing.T) {
	res, err := driver.Run("switch", progs.GenerateSwitch(1), driver.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	file := res.Spec()
	sh, err := shim.New(file)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sh.SetObs(reg)
	for _, u := range trace.NewGenerator(1, file).Updates(500) {
		_ = sh.Apply(u)
	}
	c := sh.Counters()
	if c.Rejected == 0 || c.FastpathHits == 0 || c.SlowpathHits == 0 {
		t.Fatalf("trace too tame: %+v", c)
	}
	if got := reg.Histogram("bf4_shim_update_ns", nil).Count(); got != int64(c.Validated) {
		t.Errorf("bf4_shim_update_ns counts %d updates, shim validated %d", got, c.Validated)
	}
	if got, want := reg.Histogram("bf4_shim_assertion_ns", nil).Count(), int64(c.FastpathHits+c.SlowpathHits); got != want {
		t.Errorf("bf4_shim_assertion_ns counts %d evaluations, shim ran %d", got, want)
	}
}
