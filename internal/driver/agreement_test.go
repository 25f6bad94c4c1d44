package driver

import (
	"fmt"
	"testing"

	"bf4/internal/core"
	"bf4/internal/ir"
	"bf4/internal/progs"
	"bf4/internal/prop"
)

// reachableByID reads Run's round-0 verdict of every bug of kind k, keyed
// by node ID: the builder emits nodes deterministically, so one program
// compiled under one ir.Options numbers its nodes alike in every driver.
func reachableByID(res *Result, k ir.BugKind) map[int]bool {
	out := map[int]bool{}
	for _, b := range res.InitialRep.Bugs {
		if b.Kind == k {
			out[b.Node.ID] = b.Reachable
		}
	}
	return out
}

// TestPropsAgreesWithRun: `bf4 lint -props` (Props) confirms a property
// exactly when `bf4 -check=assert` (Run, under the same instrumenter)
// finds its bug reachable assuming arbitrary entries — node by node, and
// in the counts the report prints.
func TestPropsAgreesWithRun(t *testing.T) {
	for _, scale := range []int{2, 4} {
		for seed := 1; seed <= 3; seed++ {
			t.Run(fmt.Sprintf("propswitch@%d/seed%d", scale, seed), func(t *testing.T) {
				src, spec := progs.GeneratePropSwitch(scale, seed)
				extra, err := prop.ParseSpecFile("propswitch.props", []byte(spec))
				if err != nil {
					t.Fatal(err)
				}
				props, err := GatherProps("propswitch.p4", src, "", extra)
				if err != nil {
					t.Fatal(err)
				}
				cfg := DefaultConfig()
				rep, err := Props("propswitch.p4", src, props, cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.IR.Instrument = prop.Instrumenter(rep.Properties)
				res, err := Run("propswitch.p4", src, cfg)
				if err != nil {
					t.Fatal(err)
				}
				reachable := reachableByID(res, ir.BugAssertFail)
				bugOf := map[int]*core.Bug{}
				for _, b := range rep.Bugs {
					bugOf[b.Node.ID] = b
				}
				confirmed, checked := 0, 0
				for _, bn := range rep.Pipeline.IR.Bugs {
					if bn.Bug != ir.BugAssertFail {
						continue
					}
					checked++
					got := tier(bugOf[bn.ID]) == "confirmed"
					if got {
						confirmed++
					}
					if got != reachable[bn.ID] {
						t.Errorf("n%d %q: confirmed by Props %v, reachable in Run %v", bn.ID, bn.Comment, got, reachable[bn.ID])
					}
				}
				want := 0
				for _, r := range reachable {
					if r {
						want++
					}
				}
				if checked != rep.Checks || confirmed != want || rep.Confirmed != want {
					t.Errorf("Props checks %d (report %d), confirms %d (report %d); Run finds %d assert bugs reachable",
						checked, rep.Checks, confirmed, rep.Confirmed, want)
				}
				if want == 0 || want == checked {
					t.Errorf("%d of %d asserts reachable: the family no longer exercises both verdicts", want, checked)
				}
			})
		}
	}
}

// TestTaintAgreesWithRun: `bf4 lint -taint` (Taint) confirms an alarm
// exactly when `bf4 -check=iflow` (Run) finds its leak bug reachable in
// round 0, and no sink the label analysis calls clean is reachable there.
func TestTaintAgreesWithRun(t *testing.T) {
	for seed := 1; seed <= 3; seed++ {
		for _, leaky := range []bool{true, false} {
			for _, policy := range []string{"default", "annot"} {
				t.Run(fmt.Sprintf("taintswitch@4/seed%d/leaky=%v/%s", seed, leaky, policy), func(t *testing.T) {
					src := progs.GenerateTaintSwitch(4, seed, leaky)
					cfg := DefaultConfig()
					cfg.IR.TaintDefaultPolicy = policy == "default"
					rep, err := Taint("taintswitch.p4", src, cfg)
					if err != nil {
						t.Fatal(err)
					}
					cfg.IR.CheckInfoFlow = true
					res, err := Run("taintswitch.p4", src, cfg)
					if err != nil {
						t.Fatal(err)
					}
					reachable := reachableByID(res, ir.BugInfoLeak)
					confirmedBy := map[int]bool{}
					for _, b := range rep.Bugs {
						confirmedBy[b.Node.ID] = b.Reachable
					}
					alarm := map[int]bool{}
					confirmed := 0
					for _, a := range rep.Dataflow.Alarms {
						id := a.Node.ID
						alarm[id] = true
						if confirmedBy[id] {
							confirmed++
						}
						if confirmedBy[id] != reachable[id] {
							t.Errorf("alarm n%d %q: confirmed by Taint %v, reachable in Run %v", id, a.Node.Comment, confirmedBy[id], reachable[id])
						}
					}
					if rep.Confirmed != confirmed {
						t.Errorf("report confirms %d alarms, its records %d", rep.Confirmed, confirmed)
					}
					for id, r := range reachable {
						if r && !alarm[id] {
							t.Errorf("n%d: a sink the label analysis calls clean is reachable in Run", id)
						}
					}
					if leaky && (confirmed == 0 || confirmed == len(rep.Dataflow.Alarms)) {
						t.Errorf("%d of %d alarms confirmed: the leaky family no longer exercises both verdicts", confirmed, len(rep.Dataflow.Alarms))
					}
				})
			}
		}
	}
}
