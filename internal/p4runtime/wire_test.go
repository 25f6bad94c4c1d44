package p4runtime

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"bf4/internal/driver"
	"bf4/internal/progs"
	"bf4/internal/shim"
	"bf4/internal/trace"
)

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestWireOutcomesMatchShim: every update of the seeded switch@1 trace,
// sent alone and in batches of four, is answered over the wire with the
// very text Shim.Apply and Shim.ApplyBatch give in process (a rejected
// batch with the index of its offender), and the shard ends holding the
// in-process shim's state byte for byte.
func TestWireOutcomesMatchShim(t *testing.T) {
	if testing.Short() {
		t.Skip("verifies switch@1")
	}
	res, err := driver.Run("switch@1", progs.GenerateSwitch(1), driver.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	file := res.Spec()
	updates := trace.NewGenerator(1, file).Updates(2000)
	for _, batch := range []int{1, 4} {
		sd, addr := serve(t, file, shim.FleetConfig{}, &Server{})
		client, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		ref, err := shim.New(file)
		if err != nil {
			t.Fatal(err)
		}
		accepted := 0
		for i := 0; i+batch <= len(updates); i += batch {
			frame := updates[i : i+batch]
			var want, got error
			if batch == 1 {
				want = ref.Apply(frame[0])
				got = client.Insert(frame[0].Table, frame[0].Entry)
			} else {
				want = ref.ApplyBatch(frame)
				ops := make([]BatchOp, len(frame))
				for j, u := range frame {
					ops[j] = BatchOp{Table: u.Table, Entry: u.Entry}
				}
				got = client.WriteBatch(ops)
				var be *shim.BatchError
				var re *BatchRejectedError
				if errors.As(want, &be) && (!errors.As(got, &re) || re.Index != be.Index) {
					t.Fatalf("batch %d: wire %v, in-process rejects update %d", i/batch, got, be.Index)
				}
			}
			if errText(got) != errText(want) {
				t.Fatalf("batch size %d, update %d: wire answered %q, in process %q", batch, i, errText(got), errText(want))
			}
			if want == nil {
				accepted++
			}
		}
		if accepted == 0 || accepted == len(updates)/batch {
			t.Fatalf("batch size %d: %d of %d frames accepted, want some of each outcome", batch, accepted, len(updates)/batch)
		}
		live, err := sd.MarshalSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := ref.MarshalSnapshot(); !bytes.Equal(live, want) {
			t.Fatalf("batch size %d: the shard's state differs from the in-process shim's", batch)
		}
	}
}

// TestReaderRefusesLengthBeforeAllocating: a length prefix above the cap
// is refused from the prefix alone, without making room for the length
// it claims; so is one written in more bytes than the cap needs.
func TestReaderRefusesLengthBeforeAllocating(t *testing.T) {
	for _, prefix := range [][]byte{
		binary.AppendUvarint(nil, 1<<40),
		binary.AppendUvarint(nil, 1<<20+1),
		{0x80, 0x80, 0x80, 0x80, 0x00}, // 0, overlong
	} {
		r := bufio.NewReader(bytes.NewReader(append(prefix, make([]byte, 64)...)))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := readFramePayload(r, 1<<20, nil)
		runtime.ReadMemStats(&after)
		if err != errFrameTooLarge {
			t.Fatalf("prefix %x: %v, want %v", prefix, err, errFrameTooLarge)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 4<<10 {
			t.Fatalf("prefix %x: %d bytes allocated", prefix, n)
		}
	}
}

// TestStatsReadsCounters: a stats request after 10 000 updates reads the
// shard's counters and allocates nothing that grows with the updates.
func TestStatsReadsCounters(t *testing.T) {
	_, file := natProgram(t)
	srv := &Server{}
	sd, _ := serve(t, file, shim.FleetConfig{}, srv)
	for _, u := range trace.NewGenerator(1, file).Updates(10000) {
		sd.ApplyWithKey("", u)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp := srv.dispatch(&wireRequest{ID: 1, Type: "stats"})
	runtime.ReadMemStats(&after)
	if !resp.OK || resp.Validated != 10000 {
		t.Fatalf("stats: %+v", resp)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
		t.Fatalf("one stats request allocated %d bytes", n)
	}
}
