package driver_test

import (
	"testing"

	"bf4/internal/driver"
	"bf4/internal/progs"
)

// TestIncrementalVerdictIdentity is the identity harness for the
// incremental solver core: for every corpus program, running with the
// persistent per-slice solver (clause reuse across retracted scopes,
// clause cleaning between checks) must produce
// byte-identical verdicts, fixes, and inferred annotations to the
// one-shot configuration — incremental mode may change which CNF the
// solver sees, never what a check means.
func TestIncrementalVerdictIdentity(t *testing.T) {
	for _, p := range progs.All() {
		p := p
		src := p.Source
		if p.Name == "switch" {
			if testing.Short() {
				continue
			}
			src = progs.GenerateSwitch(2)
		}
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			on := driver.DefaultConfig()
			on.Incremental = true
			resOn, err := driver.Run(p.Name, src, on)
			if err != nil {
				t.Fatalf("incremental on: %v", err)
			}
			off := driver.DefaultConfig()
			off.Incremental = false
			resOff, err := driver.Run(p.Name, src, off)
			if err != nil {
				t.Fatalf("incremental off: %v", err)
			}
			if gotOn, gotOff := fingerprint(resOn), fingerprint(resOff); gotOn != gotOff {
				t.Fatalf("verdicts differ between incremental on and off:\n--- on ---\n%s--- off ---\n%s", gotOn, gotOff)
			}
			// The two modes must see the same logical workload: discharge
			// decisions happen before the solver, so the check counts agree.
			if resOn.InitialRep.Checks != resOff.InitialRep.Checks {
				t.Fatalf("check counts differ: %d incremental vs %d one-shot",
					resOn.InitialRep.Checks, resOff.InitialRep.Checks)
			}
		})
	}
}
