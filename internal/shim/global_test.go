package shim_test

import (
	"math/rand"
	"strings"
	"testing"

	"bf4/internal/dataplane"
	"bf4/internal/driver"
	"bf4/internal/progs"
	"bf4/internal/shim"
	"bf4/internal/trace"
)

// TestGlobalCorrectnessAcrossCorpus is the paper's Theorem 7.5 at corpus
// scale: for each program, run the full bf4 loop, stand up the shim on
// the fixed program's assertions, push a randomized controller workload
// through it, and fire random packets at the accepted snapshot. No
// execution may reach a bug node. Programs with genuine dataplane bugs
// (mplb_router, linearroad) are excluded — the theorem's premise
// ("only controlled bugs") does not hold for them by design.
//
// The same workload is replayed through a second shim held on the slow
// tier: over verifier-derived annotations the bytecode tier must return
// the same verdict and the same rejection text on every update, and it
// must run every evaluation itself — the generated switch@1's 128-bit
// ipv6_fib conditions included, on two-limb registers.
func TestGlobalCorrectnessAcrossCorpus(t *testing.T) {
	programs := []string{"simple_nat", "mc_nat_16", "ecmp_2", "netchain", "heavy_hitter_2", "issue894", "switch"}
	for _, name := range programs {
		name := name
		t.Run(name, func(t *testing.T) {
			p := progs.Get(name)
			src := p.Source
			if name == "switch" {
				if testing.Short() {
					t.Skip("verifies a generated switch; skipped in -short")
				}
				src = progs.GenerateSwitch(1)
			}
			res, err := driver.Run(p.Name, src, driver.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if res.BugsAfterFixes != 0 {
				t.Fatalf("premise violated: %d bugs after fixes", res.BugsAfterFixes)
			}
			pl, _, _ := res.Final()
			file := res.Spec()
			cp, err := shim.Compile(file)
			if err != nil {
				t.Fatal(err)
			}
			sh, oracle := shim.NewFromCompiled(cp), shim.NewFromCompiled(cp)
			oracle.SetFastpath(false)

			gen := trace.NewGenerator(77, file)
			accepted, rejected := 0, 0
			for i, u := range gen.Updates(120) {
				got, want := sh.Apply(u), oracle.Apply(u)
				if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
					t.Fatalf("update %d on %s: fast tier says %v, slow tier says %v", i, u.Table, got, want)
				}
				if got == nil {
					accepted++
				} else {
					rejected++
				}
			}
			fast, slow := sh.Counters(), oracle.Counters()
			if slow.FastpathHits != 0 {
				t.Fatalf("SetFastpath(false) used the bytecode tier %d times", slow.FastpathHits)
			}
			if fast.SlowpathHits != 0 {
				t.Fatalf("a fast-tier shim fell back to the term DAG %d times", fast.SlowpathHits)
			}
			if fast.FastpathHits+fast.SlowpathHits != slow.SlowpathHits {
				t.Fatalf("assertion evaluation counts differ: fast %d+%d, slow %d",
					fast.FastpathHits, fast.SlowpathHits, slow.SlowpathHits)
			}
			if fast.FastpathHits == 0 || rejected == 0 {
				t.Fatalf("workload must exercise the bytecode tier and contain faulty updates: %d fast hits, %d rejected",
					fast.FastpathHits, rejected)
			}
			snap := sh.Snapshot()

			// Random packets: randomize every header field and the
			// ingress port; extraction pulls these values on demand.
			rng := rand.New(rand.NewSource(99))
			var fieldNames []string
			for _, v := range pl.IR.VarList() {
				if strings.HasPrefix(v.Name, "hdr.") && !strings.Contains(v.Name, "$") {
					fieldNames = append(fieldNames, v.Name)
				}
			}
			for i := 0; i < 300; i++ {
				pkt := dataplane.Packet{}
				pkt.SetField("smeta.ingress_port", int64(rng.Intn(512)))
				for _, fn := range fieldNames {
					w := pl.IR.Vars[fn].Sort.Width
					max := int64(1) << uint(min(w, 30))
					pkt.SetField(fn, rng.Int63n(max))
				}
				// Common protocol constants half the time, so parsing
				// goes deep.
				if rng.Intn(2) == 0 {
					for _, fn := range fieldNames {
						if strings.HasSuffix(fn, "etherType") {
							pkt.SetField(fn, 0x800)
						}
						if strings.HasSuffix(fn, "protocol") {
							pkt.SetField(fn, 6)
						}
					}
				}
				interp := &dataplane.Interp{P: pl.IR, Snapshot: snap, Inputs: pkt}
				tr, err := interp.Run()
				if err != nil {
					t.Fatal(err)
				}
				if tr.Bug() {
					t.Fatalf("packet %d hit %s under a shim-accepted snapshot (%d entries accepted)",
						i, tr.Terminal, accepted)
				}
			}
		})
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
