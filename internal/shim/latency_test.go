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
// bf4_shim_assertion_ns the evaluations, on either tier. With the fast
// path on, every evaluation is on the register machine: switch@1's
// 128-bit ipv6_fib conditions lower onto two-limb registers.
func TestLatencyHistogramsCountEveryEvaluation(t *testing.T) {
	res, err := driver.Run("switch", progs.GenerateSwitch(1), driver.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	file := res.Spec()
	for _, fastpath := range []bool{true, false} {
		sh, err := shim.New(file)
		if err != nil {
			t.Fatal(err)
		}
		sh.SetFastpath(fastpath)
		reg := obs.NewRegistry()
		sh.SetObs(reg)
		for _, u := range trace.NewGenerator(1, file).Updates(500) {
			_ = sh.Apply(u)
		}
		c := sh.Counters()
		tier := c.SlowpathHits
		if fastpath {
			tier = c.FastpathHits
			if c.SlowpathHits != 0 {
				t.Errorf("fastpath on: %d term-tier evaluations", c.SlowpathHits)
			}
		}
		if c.Rejected == 0 || tier == 0 {
			t.Fatalf("fastpath=%v: trace too tame: %+v", fastpath, c)
		}
		if got := reg.Histogram("bf4_shim_update_ns", nil).Count(); got != int64(c.Validated) {
			t.Errorf("fastpath=%v: bf4_shim_update_ns counts %d updates, shim validated %d", fastpath, got, c.Validated)
		}
		if got, want := reg.Histogram("bf4_shim_assertion_ns", nil).Count(), int64(c.FastpathHits+c.SlowpathHits); got != want {
			t.Errorf("fastpath=%v: bf4_shim_assertion_ns counts %d evaluations, shim ran %d", fastpath, got, want)
		}
	}
}
