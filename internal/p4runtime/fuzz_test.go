package p4runtime

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math/big"
	"strings"
	"testing"

	"bf4/internal/dataplane"
	"bf4/internal/shim"
)

// FuzzDispatch feeds arbitrary bytes, as the frames that follow a
// connection's preface, to a one-shard fleet server with packet injection
// on, the way a connection reads and serves them. No input may panic the
// reader, the decoder or dispatch, and after every frame the shard holds
// exactly what an in-process shim holds that was given, with the same
// idempotency keys, the writes of the frames the server acknowledged.
func FuzzDispatch(f *testing.F) {
	// Every frame of robust_test.go, then writes the NAT program's tables
	// admit, so that mutations start from acknowledged frames too; each
	// also cut at every byte, and a length far above the frame cap.
	var seeds [][]byte
	for _, name := range []string{"unknown type", "missing entry", "no op", "full mask", "packet", "stats",
		"c1 insert", "c2 insert", "bad batch", "good batch"} {
		seeds = append(seeds, appendFrame(nil, payloadOf(f, rawRequests[name])))
	}
	for _, name := range []string{"truncated", "wide", "bad integer"} {
		seeds = append(seeds, appendFrame(nil, rawPayloads(f)[name]))
	}
	natEntry := func(keys []dataplane.KeyMatch, action string, params ...int64) *dataplane.Entry {
		e := &dataplane.Entry{Keys: keys, Action: action}
		for _, p := range params {
			e.Params = append(e.Params, dataplane.U64(uint64(p)))
		}
		return e
	}
	drop := &dataplane.DefaultAction{Action: "drop_"}
	var nat []byte
	for _, req := range []*wireRequest{
		{ID: 1, Client: "c", Type: "insert", Writes: []*shim.Update{{Table: "nat", Entry: natEntry(
			[]dataplane.KeyMatch{dataplane.NewExact(1), dataplane.NewTernary(5, -1)}, "drop_")}}},
		{ID: 2, Client: "c", Type: "set_default", Writes: []*shim.Update{{Table: "ipv4_lpm", SetDefault: drop}}},
		{ID: 3, Client: "c", Type: "batch", Writes: []*shim.Update{
			{Table: "ipv4_lpm", Entry: natEntry([]dataplane.KeyMatch{dataplane.NewLpm(0, 0), dataplane.NewExact(1)}, "set_nhop", 1, 7)},
			{Table: "nat", SetDefault: drop}}},
		{ID: 3, Client: "c", Type: "stats"},
		{ID: 4, Type: "packet", Packet: dataplane.Packet{"hdr.ethernet.etherType": big.NewInt(2048), "hdr.ipv4.srcAddr": big.NewInt(5)}},
	} {
		frame := appendFrame(nil, payloadOf(f, req))
		seeds = append(seeds, frame)
		nat = append(nat, frame...)
	}
	seeds = append(seeds, nat)
	for _, seed := range seeds {
		for n := 0; n <= len(seed); n++ {
			f.Add(seed[:n])
		}
	}
	f.Add(binary.AppendUvarint(nil, 1<<40))

	prog, file := natProgram(f)
	cache := shim.NewAnnotationCache(nil)
	cp, _, err := cache.Get(file)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fleet := shim.NewFleet(shim.FleetConfig{Cache: cache})
		defer fleet.Close()
		sd, err := fleet.AddShard("sw0", file)
		if err != nil {
			t.Fatal(err)
		}
		srv := &Server{Fleet: fleet, DefaultSwitch: "sw0", Prog: prog}
		ref := shim.NewFromCompiled(cp)
		r := bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		for {
			// An error ends the connection: the input is spent, or its
			// next length is one the server refuses and then closes.
			payload, err := readFramePayload(r, srv.maxFrame(), buf)
			if err != nil {
				return
			}
			buf = payload
			resp := srv.serve(payload)
			if strings.Contains(resp.Error, "internal error") {
				t.Fatalf("frame %x: %s", payload, resp.Error)
			}
			if resp.OK {
				req, err := decodeRequest(payload)
				if err == nil {
					err = applyAcked(ref, req)
				}
				if err != nil {
					t.Fatalf("frame %x was acknowledged, the in-process shim refuses it: %v", payload, err)
				}
			}
			got, err := sd.MarshalSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.MarshalSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("after frame %x the shard holds\n%x\nthe in-process shim\n%x", payload, got, want)
			}
		}
	})
}

// applyAcked applies an acknowledged request's writes to sh with the
// request's idempotency key; requests that write nothing are no-ops.
func applyAcked(sh *shim.Shim, req *wireRequest) error {
	switch req.Type {
	case "insert", "set_default":
		return sh.ApplyWithKey(dedupKey(req), req.Writes[0])
	case "batch":
		return sh.ApplyBatchWithKey(dedupKey(req), req.Writes)
	}
	return nil
}
