// Command p4sim executes packets through the dataplane simulator against
// a concrete snapshot — a miniature software switch for the corpus
// programs. Scenarios are JSON files:
//
//	{
//	  "entries": {"nat": [{"keys": [{"value":"1"},{"value":"167772161","mask":"4294967295"}],
//	                        "action": "nat_hit", "params": ["42"]}]},
//	  "packets": [{"hdr.ethernet.etherType": "2048", "hdr.ipv4.srcAddr": "167772161"}]
//	}
//
// Usage:
//
//	p4sim -corpus simple_nat scenario.json
//	p4sim -program prog.p4 scenario.json
//
// A table or packet field the program does not have is an error (exit 1),
// not an empty table or a zero field.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"bf4/internal/core"
	"bf4/internal/dataplane"
	"bf4/internal/ir"
	"bf4/internal/p4runtime"
	"bf4/internal/progs"
)

type scenario struct {
	Entries map[string][]*p4runtime.EntryMsg `json:"entries"`
	Packets []map[string]string              `json:"packets"`
}

func main() {
	var (
		corpusName  = flag.String("corpus", "", "corpus program name")
		programPath = flag.String("program", "", "P4 source file")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fatalf("usage: p4sim (-corpus name | -program file.p4) scenario.json")
	}

	src := ""
	switch {
	case *corpusName != "":
		p := progs.Get(*corpusName)
		if p == nil {
			fatalf("unknown corpus program %q", *corpusName)
		}
		src = p.Source
	case *programPath != "":
		data, err := os.ReadFile(*programPath)
		if err != nil {
			fatalf("%v", err)
		}
		src = string(data)
	default:
		fatalf("need -corpus or -program")
	}

	pl, err := core.Compile(src, ir.DefaultOptions())
	if err != nil {
		fatalf("compile: %v", err)
	}

	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatalf("%v", err)
	}
	var sc scenario
	if err := json.Unmarshal(data, &sc); err != nil {
		fatalf("scenario: %v", err)
	}

	tables := map[string]bool{}
	for _, inst := range pl.IR.Instances {
		tables[inst.Table.Name] = true
	}
	names := make([]string, 0, len(sc.Entries))
	for table := range sc.Entries {
		names = append(names, table)
	}
	sort.Strings(names)
	snap := dataplane.NewSnapshot()
	for _, table := range names {
		if !tables[table] {
			fatalf("entries: the program has no table %q", table)
		}
		for _, m := range sc.Entries[table] {
			e, err := p4runtime.DecodeEntry(m)
			if err != nil {
				fatalf("entry for %s: %v", table, err)
			}
			snap.Insert(table, e)
		}
	}

	for i, pf := range sc.Packets {
		pkt := dataplane.Packet{}
		for name, val := range pf {
			v, err := p4runtime.ParseValue(val)
			if err != nil {
				fatalf("packet %d: %v", i, err)
			}
			pkt[name] = v
		}
		if err := pkt.Check(pl.IR); err != nil {
			fatalf("packet %d: %v", i, err)
		}
		interp := &dataplane.Interp{P: pl.IR, Snapshot: snap, Inputs: pkt}
		tr, err := interp.Run()
		if err != nil {
			fatalf("packet %d: %v", i, err)
		}
		status := "forwarded"
		switch {
		case tr.Bug():
			status = fmt.Sprintf("BUG[%s] %s", tr.Terminal.Bug, tr.Terminal.Comment)
		case tr.EgressSpec() == ir.DropSpec:
			status = "dropped"
		case tr.Terminal.Kind == ir.RejectTerm:
			status = "rejected by parser"
		}
		fmt.Printf("packet %d: %s (egress_spec=%d, %d steps)\n",
			i, status, tr.EgressSpec(), len(tr.Nodes))
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
