// Properties: check user @assert/@assume predicates against a program
// two ways. First the lint-style run (driver.Props): every assert is
// discharged statically, confirmed with a packet witness, or dismissed
// as infeasible. Then the full verify→infer loop (driver.Run with the
// property instrumenter): violated asserts whose root cause is table
// content become "controlled" once bf4 infers the controller
// annotations that rule the bad entries out; genuine dataplane bugs
// stay violated.
//
//	go run ./examples/properties
package main

import (
	"fmt"
	"log"

	"bf4/internal/driver"
	"bf4/internal/ir"
	"bf4/internal/progs"
	"bf4/internal/prop"
)

func main() {
	// A deterministic program + .props spec pair built to exercise all
	// three verdicts (same generator as `bf4 lint -family props`).
	name := "propswitch.p4"
	src, specText := progs.GeneratePropSwitch(2, 1)
	props, err := prop.ParseSpecFile("propswitch.props", []byte(specText))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== properties, lint-style (bf4 lint -props) ==")
	rep, err := driver.Props(name, src, props, driver.DefaultPropConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep.Report().RenderText(name))

	// The same properties through the full pipeline: find violations
	// assuming arbitrary table entries, then infer the controller
	// annotations that control the controllable ones.
	fmt.Println("\n== properties through verify -> infer (bf4 -check=assert) ==")
	cfg := driver.DefaultConfig()
	cfg.IR.Instrument = prop.Instrumenter(props)
	res, err := driver.Run(name, src, cfg)
	if err != nil {
		log.Fatal(err)
	}
	for _, b := range res.InitialRep.Bugs {
		if b.Kind != ir.BugAssertFail || b.Node.Prop == nil {
			continue
		}
		info := b.Node.Prop
		switch {
		case !b.Reachable:
			fmt.Printf("assert %s (%s): holds\n", info.Text, info.Origin)
		case res.InferResult.Controlled[b.Node]:
			fmt.Printf("assert %s (%s): violated under arbitrary entries; controlled by inferred annotations\n", info.Text, info.Origin)
		default:
			fmt.Printf("assert %s (%s): VIOLATED (uncontrolled after inference)\n", info.Text, info.Origin)
		}
	}
}
