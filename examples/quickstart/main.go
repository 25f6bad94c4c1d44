// Quickstart: verify the paper's running example (simple_nat), inspect
// the bugs bf4 finds, the controller annotations it infers, and the key
// it adds to fix the TTL bug — the complete Figure 3 loop in ~40 lines.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"bf4/internal/driver"
	"bf4/internal/progs"
)

func main() {
	prog := progs.Get("simple_nat")

	// Run the whole compile-time pipeline: find bugs assuming arbitrary
	// table entries, infer controller annotations, propose fixes, rebuild
	// and re-infer.
	res, err := driver.Run(prog.Name, prog.Source, driver.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== bf4 quickstart:", prog.Name, "==")
	fmt.Printf("reachable bugs assuming arbitrary entries: %d\n", res.Bugs)
	for _, b := range res.InitialRep.Bugs {
		if b.Reachable {
			fmt.Printf("  - %s\n", b.Description())
		}
	}

	fmt.Printf("\nafter inferring controller annotations: %d bugs remain\n", res.BugsAfterInfer)
	fmt.Printf("fixes proposed: %d key(s)\n", res.KeysAdded)
	fmt.Print(res.Fixes.Describe())
	fmt.Printf("after applying fixes and re-inferring: %d bugs remain\n\n", res.BugsAfterFixes)

	// The annotations the runtime shim will enforce, in the paper's
	// SQL-like rendering.
	file := res.Spec()
	fmt.Println("== inferred controller assertions ==")
	fmt.Print(file.Render())
}
