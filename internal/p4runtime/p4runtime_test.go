package p4runtime

import (
	"math/big"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"

	"bf4/internal/dataplane"
	"bf4/internal/driver"
	"bf4/internal/ir"
	"bf4/internal/shim"
	"bf4/internal/spec"
)

const natSrc = `
header ethernet_t { bit<48> dst; bit<48> src; bit<16> etherType; }
header ipv4_t { bit<8> ttl; bit<32> srcAddr; bit<32> dstAddr; }
struct meta_t { bit<1> do_forward; bit<32> nhop; }
struct metadata { meta_t meta; }
struct headers { ethernet_t ethernet; ipv4_t ipv4; }

parser P(packet_in pkt, out headers hdr, inout metadata meta,
         inout standard_metadata_t smeta) {
    state start {
        pkt.extract(hdr.ethernet);
        transition select(hdr.ethernet.etherType) {
            16w0x800: parse_ipv4;
            default: accept;
        }
    }
    state parse_ipv4 { pkt.extract(hdr.ipv4); transition accept; }
}

control Ing(inout headers hdr, inout metadata meta,
            inout standard_metadata_t smeta) {
    action drop_() { mark_to_drop(smeta); }
    action nat_hit(bit<32> a) {
        meta.meta.do_forward = 1w1;
        meta.meta.nhop = a;
    }
    table nat {
        key = { hdr.ipv4.isValid(): exact; hdr.ipv4.srcAddr: ternary; }
        actions = { drop_; nat_hit; }
        default_action = drop_();
    }
    action set_nhop(bit<32> nhop, bit<9> port) {
        meta.meta.nhop = nhop;
        smeta.egress_spec = port;
        hdr.ipv4.ttl = hdr.ipv4.ttl - 1;
    }
    table ipv4_lpm {
        key = { meta.meta.nhop: lpm; }
        actions = { set_nhop; drop_; }
    }
    apply {
        nat.apply();
        if (meta.meta.do_forward == 1w1) {
            ipv4_lpm.apply();
        }
    }
}

control Eg(inout headers hdr, inout metadata meta,
           inout standard_metadata_t smeta) { apply { } }
control Dep(packet_out pkt, in headers hdr) { apply { pkt.emit(hdr.ipv4); } }

V1Switch(P(), Ing(), Eg(), Dep()) main;
`

// natProgram compiles the NAT example and returns its IR plus the
// inferred spec, shared by the protocol and chaos tests.
func natProgram(t testing.TB) (*ir.Program, *spec.File) {
	t.Helper()
	res, err := driver.Run("simple_nat", natSrc, driver.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pl, _, _ := res.Final()
	return pl.IR, res.Spec()
}

// serve starts srv in front of a one-shard fleet of cfg: shard "sw0",
// the default switch, over file. The server and the fleet stop when the
// test ends; serve returns the shard and the server's address.
func serve(t *testing.T, file *spec.File, cfg shim.FleetConfig, srv *Server) (*shim.Shard, string) {
	t.Helper()
	fleet := shim.NewFleet(cfg)
	t.Cleanup(func() { fleet.Close() })
	sd, err := fleet.AddShard("sw0", file)
	if err != nil {
		t.Fatal(err)
	}
	srv.Fleet, srv.DefaultSwitch = fleet, "sw0"
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return sd, ln.Addr().String()
}

func startServer(t *testing.T) (*Client, func()) {
	t.Helper()
	prog, file := natProgram(t)
	_, addr := serve(t, file, shim.FleetConfig{}, &Server{Prog: prog})
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	return client, func() { client.Close() }
}

func TestInsertAndPacket(t *testing.T) {
	client, stop := startServer(t)
	defer stop()

	// Sane nat entry for 10.0.0.1.
	err := client.Insert("nat", &dataplane.Entry{
		Keys:   []dataplane.KeyMatch{dataplane.NewExact(1), dataplane.NewTernary(0x0A000001, -1)},
		Action: "nat_hit",
		Params: []dataplane.Value{dataplane.U64(0x0A000099)},
	})
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	// Route in lpm (fixed table has validity key appended).
	err = client.Insert("ipv4_lpm", &dataplane.Entry{
		Keys:   []dataplane.KeyMatch{dataplane.NewLpm(0, 0), dataplane.NewExact(1)},
		Action: "set_nhop",
		Params: []dataplane.Value{dataplane.U64(1), dataplane.U64(7)},
	})
	if err != nil {
		t.Fatalf("insert lpm: %v", err)
	}

	pr, err := client.SendPacket(map[string]int64{
		"hdr.ethernet.etherType": 0x800,
		"hdr.ipv4.srcAddr":       0x0A000001,
		"hdr.ipv4.ttl":           64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Bug {
		t.Fatalf("packet triggered bug %s", pr.BugKind)
	}
	if pr.EgressSpec != 7 {
		t.Fatalf("egress_spec = %d, want 7", pr.EgressSpec)
	}
}

// TestPacketReportsUnlistedAction: a server whose annotation file was
// made for another build of the program can hold, shim-approved, an entry
// running an action its own program's table does not list. A packet that
// matches it has no branch to take; the RPC says so, it does not run the
// table's action 0 and report that action's egress port.
func TestPacketReportsUnlistedAction(t *testing.T) {
	prog, file := natProgram(t)
	nat := file.Tables[slices.IndexFunc(file.Tables, func(ts *spec.TableSchema) bool { return ts.Name == "nat" })]
	nat.Actions = append(nat.Actions, &spec.ActionSchema{Name: "nat_hit_v2", Index: len(nat.Actions)})
	_, addr := serve(t, file, shim.FleetConfig{}, &Server{Prog: prog})
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Insert("nat", &dataplane.Entry{
		Keys:   []dataplane.KeyMatch{dataplane.NewExact(1), dataplane.NewTernary(0x0A000001, -1)},
		Action: "nat_hit_v2",
	}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	_, err = client.SendPacket(map[string]int64{"hdr.ethernet.etherType": 0x800, "hdr.ipv4.srcAddr": 0x0A000001})
	if err == nil || !strings.Contains(err.Error(), "table nat") || !strings.Contains(err.Error(), `"nat_hit_v2"`) {
		t.Fatalf("packet = %v, want an error naming table nat and action nat_hit_v2", err)
	}
}

// TestPacketRefusesUnknownField: a packet naming a field the program has
// no variable for is refused with an error naming it, not run with that
// field read as zero.
func TestPacketRefusesUnknownField(t *testing.T) {
	client, stop := startServer(t)
	defer stop()
	_, err := client.SendPacket(map[string]int64{"hdr.ethernet.etherType": 0x800, "hdr.ipv4.srcAdr": 0x0A000001})
	if err == nil || !strings.Contains(err.Error(), `"hdr.ipv4.srcAdr"`) {
		t.Fatalf("packet = %v, want an error naming hdr.ipv4.srcAdr", err)
	}
	if _, err := client.SendPacket(map[string]int64{"hdr.ethernet.etherType": 0x800, "hdr.ipv4.srcAddr": 0x0A000001}); err != nil {
		t.Fatalf("packet with known fields: %v", err)
	}
}

func TestRejectionOverTheWire(t *testing.T) {
	client, stop := startServer(t)
	defer stop()

	err := client.Insert("nat", &dataplane.Entry{
		Keys:   []dataplane.KeyMatch{dataplane.NewExact(0), dataplane.NewTernary(0, 0xFF000000)},
		Action: "nat_hit",
		Params: []dataplane.Value{dataplane.U64(1)},
	})
	if err == nil {
		t.Fatal("faulty rule accepted over the wire")
	}
	validated, rejected, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if validated != 1 || rejected != 1 {
		t.Fatalf("stats: validated=%d rejected=%d", validated, rejected)
	}
}

func TestValidateDoesNotInsert(t *testing.T) {
	client, stop := startServer(t)
	defer stop()

	e := &dataplane.Entry{
		Keys:   []dataplane.KeyMatch{dataplane.NewExact(1), dataplane.NewTernary(5, -1)},
		Action: "drop_",
	}
	if err := client.Validate("nat", e); err != nil {
		t.Fatal(err)
	}
	// The validated-but-not-inserted rule must not affect packets: an
	// IPv4 packet from 5 misses and runs the drop_ default.
	pr, err := client.SendPacket(map[string]int64{
		"hdr.ethernet.etherType": 0x800,
		"hdr.ipv4.srcAddr":       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pr.EgressSpec != 511 {
		t.Fatalf("egress_spec = %d, want drop", pr.EgressSpec)
	}
}

func TestConcurrentClients(t *testing.T) {
	client, stop := startServer(t)
	defer stop()
	_ = client

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				e := &dataplane.Entry{
					Keys:   []dataplane.KeyMatch{dataplane.NewExact(1), dataplane.NewTernary(int64(g*100+i), -1)},
					Action: "drop_",
				}
				if err := client.Insert("nat", e); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestEntryCodecRoundTrip(t *testing.T) {
	e := &dataplane.Entry{
		Keys: []dataplane.KeyMatch{
			dataplane.NewExact(1),
			dataplane.NewTernary(0xAA, 0xFF),
			dataplane.NewLpm(0x0A000000, 8),
		},
		Action:   "act",
		Params:   []dataplane.Value{dataplane.U64(7), dataplane.U64(9)},
		Priority: 3,
	}
	m := EncodeEntry(e)
	e2, err := DecodeEntry(m)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Action != "act" || e2.Priority != 3 || len(e2.Keys) != 3 || len(e2.Params) != 2 {
		t.Fatalf("round trip lost data: %+v", e2)
	}
	if e2.Keys[2].PrefixLen != 8 || e2.Keys[1].Mask.Uint64() != 0xFF {
		t.Fatalf("key details lost: %+v", e2.Keys)
	}
}

// TestPacketToDownDefaultShardNamesIt: a packet that relies on the
// default switch, sent while that shard is down, is refused as retryable
// with the resolved shard's id and state, not an empty name.
func TestPacketToDownDefaultShardNamesIt(t *testing.T) {
	prog, file := natProgram(t)
	sd, addr := serve(t, file, shim.FleetConfig{}, &Server{Prog: prog})
	sd.Kill()
	resp := dialRaw(t, addr).roundTripPayload(t, payloadOf(t, &wireRequest{ID: 1, Type: "packet",
		Packet: dataplane.Packet{"hdr.ethernet.etherType": big.NewInt(2048)}}))
	if resp.OK || !resp.Retryable || !strings.Contains(resp.Error, "shard sw0 unavailable (down)") {
		t.Fatalf("packet to a down default shard: %+v, want a retryable refusal naming sw0", resp)
	}
}
