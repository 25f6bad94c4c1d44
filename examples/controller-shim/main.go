// Controller-shim: the paper's end-to-end runtime scenario over the wire.
// A shim server (controller ⇄ shim ⇄ dataplane) is started on loopback
// with the assertions inferred for simple_nat; an SDN-controller-shaped
// client then:
//
//  1. installs sane NAT and routing rules — accepted,
//
//  2. attempts the paper's faulty rule (ipv4.isValid()==0 with a nonzero
//     srcAddr mask) — rejected with an exception,
//
//  3. injects packets to show the accepted snapshot forwards correctly
//     and, because the faulty rule never reached the dataplane, no packet
//     can trigger the bug.
//
//     go run ./examples/controller-shim
package main

import (
	"fmt"
	"log"
	"net"

	"bf4/internal/dataplane"
	"bf4/internal/driver"
	"bf4/internal/p4runtime"
	"bf4/internal/progs"
	"bf4/internal/shim"
)

func main() {
	prog := progs.Get("simple_nat")
	res, err := driver.Run(prog.Name, prog.Source, driver.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	pl, _, _ := res.Final() // the fixed program (ipv4_lpm gained a validity key)
	file := res.Spec()

	// One switch is a one-shard fleet.
	fleet := shim.NewFleet(shim.FleetConfig{})
	defer fleet.Close()
	if _, err := fleet.AddShard("sw0", file); err != nil {
		log.Fatal(err)
	}
	srv := &p4runtime.Server{Fleet: fleet, DefaultSwitch: "sw0", Prog: pl.IR}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	client, err := p4runtime.Dial(ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	fmt.Println("controller connected to shim at", ln.Addr())

	// 1. Sane rules. The nat table keys (from the program):
	//    is_ext_if, ipv4.isValid(), tcp.isValid(), then four ternaries.
	must := func(table string, e *dataplane.Entry) {
		if err := client.Insert(table, e); err != nil {
			log.Fatalf("expected accept for %s: %v", table, err)
		}
		fmt.Printf("  accepted: %s <- action %s\n", table, e.Action)
	}
	must("if_info", &dataplane.Entry{
		Keys:   []dataplane.KeyMatch{dataplane.NewExact(1)},
		Action: "set_if_info",
		Params: []dataplane.Value{dataplane.U64(0)}, // internal interface
	})
	must("nat", &dataplane.Entry{
		Keys: []dataplane.KeyMatch{
			dataplane.NewExact(0), // is_ext_if == 0
			dataplane.NewExact(1), // ipv4 valid
			dataplane.NewExact(1), // tcp valid
			dataplane.NewTernary(0x0A000001, -1),
			dataplane.NewTernary(0, 0),
			dataplane.NewTernary(0, 0),
			dataplane.NewTernary(0, 0),
		},
		Action: "nat_hit_int_to_ext",
		Params: []dataplane.Value{dataplane.U64(0xC0A80001), dataplane.U64(4000)},
	})
	must("ipv4_lpm", &dataplane.Entry{
		Keys: []dataplane.KeyMatch{
			dataplane.NewLpm(0, 0),
			dataplane.NewExact(1), // the key bf4 added: ipv4 must be valid
		},
		Action: "set_nhop",
		Params: []dataplane.Value{dataplane.U64(0x0A0000FE), dataplane.U64(7)},
	})

	// 2. The paper's faulty rule: expects an INVALID ipv4 header yet
	// matches on srcAddr with a nonzero mask.
	fmt.Println("\ncontroller now tries the faulty rule from the paper:")
	err = client.Insert("nat", &dataplane.Entry{
		Keys: []dataplane.KeyMatch{
			dataplane.NewExact(0),
			dataplane.NewExact(0), // ipv4 INVALID expected...
			dataplane.NewExact(0),
			dataplane.NewTernary(0, 0xFF000000), // ...but srcAddr mask != 0
			dataplane.NewTernary(0, 0),
			dataplane.NewTernary(0, 0),
			dataplane.NewTernary(0, 0),
		},
		Action: "nat_hit_int_to_ext",
		Params: []dataplane.Value{dataplane.U64(1), dataplane.U64(1)},
	})
	if err == nil {
		log.Fatal("the shim accepted a faulty rule!")
	}
	fmt.Printf("  rejected with exception:\n    %v\n", err)

	// 3. Packets through the accepted snapshot.
	fmt.Println("\ninjecting packets against the accepted snapshot:")
	pr, err := client.SendPacket(map[string]int64{
		"smeta.ingress_port":     1,
		"hdr.ethernet.etherType": 0x800,
		"hdr.ipv4.protocol":      6,
		"hdr.ipv4.srcAddr":       0x0A000001,
		"hdr.ipv4.ttl":           64,
		"hdr.tcp.srcPort":        1234,
		"meta.meta.ipv4_da":      0,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  TCP flow from 10.0.0.1: egress_spec=%d bug=%v\n", pr.EgressSpec, pr.Bug)

	pr, err = client.SendPacket(map[string]int64{
		"smeta.ingress_port":     1,
		"hdr.ethernet.etherType": 0x806, // ARP: no ipv4 header
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  ARP packet (no ipv4): egress_spec=%d bug=%v\n", pr.EgressSpec, pr.Bug)

	v, r, _ := client.Stats()
	fmt.Printf("\nshim stats: %d updates validated, %d rejected\n", v, r)
}
