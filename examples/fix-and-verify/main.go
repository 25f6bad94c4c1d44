// Fix-and-verify: bring your own (buggy) P4 program, watch bf4 repair it.
// This example analyzes an inline program with a validity-blind routing
// table and a path that leaves egress_spec unset, prints the
// counterexample model for each bug and replays it through the dataplane
// interpreter to prove it real on the original program, then prints the
// fixed program — the key added to the table, mark_to_drop at the top of
// ingress — and re-verifies it end to end.
//
//	go run ./examples/fix-and-verify
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"

	"bf4/internal/dataplane"
	"bf4/internal/driver"
)

const buggyRouter = `
header ipv4_t {
    bit<8>  ttl;
    bit<8>  protocol;
    bit<32> srcAddr;
    bit<32> dstAddr;
}

struct metadata {
    bit<16> next_hop;
}

struct headers {
    ipv4_t ipv4;
}

parser RParser(packet_in pkt, out headers hdr, inout metadata meta,
               inout standard_metadata_t smeta) {
    state start {
        transition select(smeta.ingress_port) {
            9w0: parse_ipv4;
            default: accept;
        }
    }
    state parse_ipv4 {
        pkt.extract(hdr.ipv4);
        transition accept;
    }
}

control RIngress(inout headers hdr, inout metadata meta,
                 inout standard_metadata_t smeta) {
    action drop_() { mark_to_drop(smeta); }
    action route(bit<9> port) {
        hdr.ipv4.ttl = hdr.ipv4.ttl - 8w1;   // BUG: ipv4 may be invalid
        smeta.egress_spec = port;
    }
    table routing {
        key = { meta.next_hop: exact; }       // no validity key!
        actions = { route; drop_; }
        default_action = drop_();
    }
    apply {
        if (smeta.ingress_port != 9w64) {     // BUG: port 64 leaves egress_spec unset
            routing.apply();
        }
    }
}

V1Switch(RParser(), RIngress()) main;
`

func main() {
	res, err := driver.Run("buggy_router", buggyRouter, driver.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== analysis of the buggy router ==")
	fmt.Println(res.Summary())

	// Show the counterexample for the TTL bug: which rule and which
	// packet trigger it.
	for _, b := range res.InitialRep.Bugs {
		if !b.Reachable {
			continue
		}
		fmt.Printf("\nbug: %s\ncounterexample (relevant model values):\n", b.Description())
		var names []string
		for name := range b.Model {
			if strings.HasPrefix(name, "pcn_routing") || strings.HasPrefix(name, "smeta.ingress_port") {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("  %s = %v\n", name, b.Model[name])
		}

		// Replay the model operationally: the interpreter must land on
		// exactly this bug node.
		pl := res.Initial
		interp := &dataplane.Interp{P: pl.IR, Model: b.Model, Pass: pl.Pass}
		tr, err := interp.Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("replayed through the dataplane interpreter: %d steps -> %s\n",
			len(tr.Nodes), tr.Terminal)
		if tr.Terminal != b.Node {
			log.Fatal("replay diverged from the verifier's verdict!")
		}
	}

	fmt.Printf("\n== proposed fix ==\n%s", res.Fixes.Describe())
	if res.FixedSource == "" {
		log.Fatal("no fixed source produced")
	}
	// The fixed source is the program bf4 verified in its last round: the
	// key is in the table and the egress-spec fix is a statement.
	fmt.Println("\n== fixed ingress control ==")
	in := false
	for _, line := range strings.Split(res.FixedSource, "\n") {
		in = in || strings.HasPrefix(line, "control RIngress")
		if in {
			fmt.Println("   ", line)
		}
		if in && line == "}" {
			break
		}
	}

	// Verifying the fixed source again must find nothing to fix.
	res2, err := driver.Run("fixed_router", res.FixedSource, driver.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n== re-verification of the fixed program ==\n%s\n", res2.Summary())
	if res2.BugsAfterInfer != 0 || res2.Fixed != nil {
		log.Fatalf("fixed program still needs fixes:\n%s", res2.Fixes.Describe())
	}
	fmt.Println("all bugs controllable: safe to deploy behind the shim.")
}
