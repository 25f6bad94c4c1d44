package p4runtime

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"bf4/internal/shim"
)

// FuzzDispatch feeds arbitrary request frames, one per line, to a
// one-shard fleet server with packet injection on, the way a connection
// hands them to dispatchSafe. No frame may panic dispatch, and after every
// frame the shard holds exactly what an in-process shim holds that was
// given, with the same idempotency keys, the updates of the frames the
// server acknowledged.
func FuzzDispatch(f *testing.F) {
	// Every raw frame of robust_test.go, then writes the NAT program's
	// tables admit, so that mutations start from acknowledged frames too.
	for _, frame := range []string{
		`{"id":1,"type":"frobnicate"}`,
		`{"id":2,"type":"insert","table":"t"}`,
		`{"id":3,"type":"insert","table":"t","entry":{"keys":[{"value":"zap"}],"action":"NoAction"}}`,
		`{"id":4,"type":"insert","table":"t","entry":{"keys":[{"value":"-7"}],"action":"NoAction"}}`,
		`{"id":5,"type":"insert","table":"t","entry":{"keys":[{"value":"` + strings.Repeat("9", 2000) + `"}],"action":"NoAction"}}`,
		`{"id":6,"type":"validate","table":"t","entry":{"keys":[{"value":"1","mask":"-1"}],"action":"NoAction"}}`,
		`{"id":7,"type":"packet","packet":{"x":"1"}}`,
		"{nope",
		`{"id":10,"type":"stats"}`,
		`{"id":1,"type":"insert","junk":"` + strings.Repeat("x", 4096) + `"}`,
		`{"id":1,"type":"stats"}`,
		`{"id":2,"type":"stats"}`,
		`{"id":1,"client":"c1","type":"insert","table":"t","entry":{"keys":[{"value":"3"}],"action":"NoAction"}}`,
		`{"id":1,"client":"c2","type":"insert","table":"t","entry":{"keys":[{"value":"4"}],"action":"NoAction"}}`,
		`{"id":1,"type":"batch","updates":[` +
			`{"op":"insert","table":"t","entry":{"keys":[{"value":"1"}],"action":"NoAction"}},` +
			`{"op":"insert","table":"ghost","entry":{"keys":[{"value":"2"}],"action":"NoAction"}}]}`,
		`{"id":2,"type":"batch","updates":[` +
			`{"op":"insert","table":"t","entry":{"keys":[{"value":"1"}],"action":"NoAction"}},` +
			`{"op":"set_default","table":"t","entry":{"keys":[],"action":"NoAction"}}]}`,

		`{"id":1,"client":"c","type":"insert","table":"nat","entry":{"keys":[{"value":"1"},{"value":"5","mask":"-1"}],"action":"drop_"}}`,
		`{"id":2,"client":"c","type":"set_default","table":"ipv4_lpm","entry":{"action":"drop_"}}` + "\n" +
			`{"id":3,"client":"c","type":"batch","updates":[` +
			`{"op":"insert","table":"ipv4_lpm","entry":{"keys":[{"value":"0","prefix_len":0},{"value":"1"}],"action":"set_nhop","params":["1","7"]}},` +
			`{"op":"set_default","table":"nat","entry":{"action":"drop_"}}]}` + "\n" +
			`{"id":3,"client":"c","type":"stats"}` + "\n" +
			`{"id":4,"type":"packet","packet":{"hdr.ethernet.etherType":"2048","hdr.ipv4.srcAddr":"5"}}`,
	} {
		f.Add([]byte(frame))
	}
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
		for _, frame := range bytes.Split(data, []byte("\n")) {
			var req Request
			if json.Unmarshal(frame, &req) != nil {
				continue
			}
			resp := srv.dispatchSafe(&req)
			if strings.Contains(resp.Error, "internal error") {
				t.Fatalf("frame %q: %s", frame, resp.Error)
			}
			if resp.OK {
				if err := applyAcked(ref, &req); err != nil {
					t.Fatalf("frame %q was acknowledged, the in-process shim refuses it: %v", frame, err)
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
				t.Fatalf("after frame %q the shard holds\n%x\nthe in-process shim\n%x", frame, got, want)
			}
		}
	})
}

// applyAcked applies an acknowledged request's updates to sh with the
// request's idempotency key; requests that write nothing are no-ops.
func applyAcked(sh *shim.Shim, req *Request) error {
	switch req.Type {
	case "insert", "set_default":
		u, err := decodeUpdate(-1, req.Type, req.Table, req.Entry)
		if err != nil {
			return err
		}
		return sh.ApplyWithKey(dedupKey(req), u)
	case "batch":
		updates := make([]*shim.Update, len(req.Update))
		for i, um := range req.Update {
			u, err := decodeUpdate(i, um.Op, um.Table, um.Entry)
			if err != nil {
				return err
			}
			updates[i] = u
		}
		return sh.ApplyBatchWithKey(dedupKey(req), updates)
	}
	return nil
}
