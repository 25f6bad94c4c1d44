package p4runtime

import (
	"bufio"
	"context"
	"encoding/binary"
	"math/big"
	"net"
	"strings"
	"testing"
	"time"

	"bf4/internal/dataplane"
	"bf4/internal/shim"
	"bf4/internal/spec"
)

func rawSpec() *spec.File {
	return &spec.File{
		Program: "t",
		Tables: []*spec.TableSchema{{
			Name:   "t",
			Prefix: "pcn_t$0",
			Keys:   []spec.KeySchema{{Path: "x", MatchKind: "exact", Width: 8}},
			Actions: []*spec.ActionSchema{
				{Name: "NoAction", Index: 0},
				{Name: "bad", Index: 1, Buggy: true},
			},
			Default: "NoAction",
		}},
	}
}

// newRawServer runs a server over a trivial single-table spec for
// protocol-level testing.
func newRawServer(t *testing.T, cfg func(*Server)) (*Server, *shim.Shard, string) {
	t.Helper()
	srv := &Server{}
	if cfg != nil {
		cfg(srv)
	}
	sd, addr := serve(t, rawSpec(), shim.FleetConfig{}, srv)
	return srv, sd, addr
}

// tWrite is an insert of key x, running NoAction, into table (rawSpec has
// only t).
func tWrite(table string, x int64) *shim.Update {
	return &shim.Update{Table: table, Entry: &dataplane.Entry{Keys: []dataplane.KeyMatch{dataplane.NewExact(x)}, Action: "NoAction"}}
}

// rawRequests are the requests the raw-frame tests below send, by name;
// FuzzDispatch starts from their frames.
var rawRequests = map[string]*wireRequest{
	"unknown type":  {ID: 1, Type: "frobnicate"},
	"missing entry": {ID: 2, Type: "insert"},
	"no op":         {ID: 3, Type: "insert", Writes: []*shim.Update{{Table: "t"}}},
	"full mask": {ID: 6, Type: "validate", Writes: []*shim.Update{{Table: "t", Entry: &dataplane.Entry{
		Keys: []dataplane.KeyMatch{dataplane.NewTernary(1, -1)}, Action: "NoAction"}}}},
	"packet":     {ID: 7, Type: "packet", Packet: dataplane.Packet{"x": big.NewInt(1)}},
	"stats":      {ID: 10, Type: "stats"},
	"c1 insert":  {ID: 1, Client: "c1", Type: "insert", Writes: []*shim.Update{tWrite("t", 3)}},
	"c2 insert":  {ID: 1, Client: "c2", Type: "insert", Writes: []*shim.Update{tWrite("t", 4)}},
	"bad batch":  {ID: 1, Type: "batch", Writes: []*shim.Update{tWrite("t", 1), tWrite("ghost", 2)}},
	"good batch": {ID: 2, Type: "batch", Writes: []*shim.Update{tWrite("t", 1), {Table: "t", SetDefault: &dataplane.DefaultAction{Action: "NoAction"}}}},
}

// rawPayloads are payloads no client encodes, by name; FuzzDispatch
// starts from them too.
func rawPayloads(t testing.TB) map[string][]byte {
	insert := payloadOf(t, rawRequests["c1 insert"])
	return map[string][]byte{
		"truncated": insert[:len(insert)-1],
		// A 600-byte key value, wider than any bitvector.
		"wide": insertKeyBytes(5, 600, make([]byte, 600)),
		// A key value whose length runs past the payload.
		"bad integer": insertKeyBytes(4, 200, []byte("zap")),
	}
}

// insertKeyBytes is the payload of insert request id into table t whose
// one key's integer has length field n and then the bytes of value; an
// entry's remaining fields follow when value is n bytes long.
func insertKeyBytes(id int64, n int, value []byte) []byte {
	e := &shim.Encoder{}
	e.Varint(id)
	e.Str("")
	e.Str("")
	e.Str("insert")
	e.Uvarint(1) // one write
	e.Str("t")   // to t,
	e.Uvarint(1) // an entry (shim's opEntry)
	e.Uvarint(1) // of one key
	e.Uvarint(0) // without mask or prefix
	e.Uvarint(uint64(n))
	e.Buf = append(e.Buf, value...)
	if len(value) == n {
		e.Str("NoAction")
		e.Uvarint(0) // parameters
		e.Varint(0)  // priority
		e.Uvarint(0) // packet fields
	}
	return e.Buf
}

// payloadOf encodes req's payload.
func payloadOf(t testing.TB, req *wireRequest) []byte {
	t.Helper()
	var e shim.Encoder
	encodeRequest(&e, req)
	if e.Err != nil {
		t.Fatal(e.Err)
	}
	return e.Buf
}

// rawConn speaks frames by hand: it opens with the preface and reads the
// server's before the first response.
type rawConn struct {
	net.Conn
	r       *bufio.Reader
	greeted bool
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write([]byte(preface)); err != nil {
		t.Fatal(err)
	}
	return &rawConn{Conn: conn, r: bufio.NewReader(conn)}
}

func (c *rawConn) write(t *testing.T, b []byte) {
	t.Helper()
	if _, err := c.Write(b); err != nil {
		t.Fatal(err)
	}
}

// recv reads one response frame.
func (c *rawConn) recv(t *testing.T) *Response {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if !c.greeted {
		if err := readPreface(c.r); err != nil {
			t.Fatal(err)
		}
		c.greeted = true
	}
	payload, err := readFramePayload(c.r, maxResponseBytes, nil)
	if err != nil {
		t.Fatalf("no response: %v", err)
	}
	resp, err := decodeResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// expectClosed asserts that the server has closed the connection.
func (c *rawConn) expectClosed(t *testing.T) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.r.ReadByte(); err == nil {
		t.Fatal("connection still open")
	}
}

func (c *rawConn) roundTripPayload(t *testing.T, payload []byte) *Response {
	t.Helper()
	c.write(t, appendFrame(nil, payload))
	return c.recv(t)
}

func (c *rawConn) roundTrip(t *testing.T, name string) *Response {
	t.Helper()
	return c.roundTripPayload(t, payloadOf(t, rawRequests[name]))
}

func startRawConn(t *testing.T) *rawConn {
	t.Helper()
	_, _, addr := newRawServer(t, nil)
	return dialRaw(t, addr)
}

func TestUnknownRequestType(t *testing.T) {
	resp := startRawConn(t).roundTrip(t, "unknown type")
	if resp.OK || resp.Error != `p4runtime: unknown request type "frobnicate"` {
		t.Fatalf("unknown request accepted: %+v", resp)
	}
	if resp.ID != 1 {
		t.Fatalf("response id = %d", resp.ID)
	}
}

func TestMissingEntry(t *testing.T) {
	if resp := startRawConn(t).roundTrip(t, "missing entry"); resp.OK || resp.Error != "p4runtime: missing entry" {
		t.Fatalf("insert without a write: %+v", resp)
	}
}

func TestWriteWithoutOp(t *testing.T) {
	resp := startRawConn(t).roundTrip(t, "no op")
	if resp.OK || resp.ID != 3 || resp.Error != "p4runtime: malformed request: write 0 carries no op" {
		t.Fatalf("write without an op: %+v", resp)
	}
}

func TestBadIntegerValue(t *testing.T) {
	resp := startRawConn(t).roundTripPayload(t, rawPayloads(t)["bad integer"])
	if resp.OK || resp.ID != 4 || resp.Error != "p4runtime: malformed request: length 200 exceeds the 3 bytes that remain" {
		t.Fatalf("key value past the payload: %+v", resp)
	}
}

// TestNegativeValueRejected: a frame cannot hold a negative value — a
// table entry's values cannot be negative at all, a packet field's can —
// so the client refuses to encode one, sends nothing and stays usable.
func TestNegativeValueRejected(t *testing.T) {
	_, sd, addr := newRawServer(t, nil)
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.SendPacket(map[string]int64{"x": -7}); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("negative packet field: %v", err)
	}
	if v, _, err := client.Stats(); err != nil || v != 0 {
		t.Fatalf("after a refused encoding: %d validated, %v", v, err)
	}
	if err := client.Insert("t", tWrite("t", 1).Entry); err != nil || shadowSize(sd.Snapshot(), "t") != 1 {
		t.Fatalf("insert after a refused encoding: %v", err)
	}
}

// TestAbsurdlyWideValueRejected: a value wider than any bitvector is
// refused by the server's decoder and, before that, by the client's
// encoder.
func TestAbsurdlyWideValueRejected(t *testing.T) {
	_, _, addr := newRawServer(t, nil)
	resp := dialRaw(t, addr).roundTripPayload(t, rawPayloads(t)["wide"])
	if resp.OK || resp.ID != 5 || resp.Error != "p4runtime: malformed request: integer of 600 bytes is wider than 4096 bits" {
		t.Fatalf("600-byte key value: %+v", resp)
	}
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	wide, _ := dataplane.FromBig(new(big.Int).Lsh(big.NewInt(1), 5000))
	e := &dataplane.Entry{Keys: []dataplane.KeyMatch{{Value: wide, PrefixLen: -1}}, Action: "NoAction"}
	if err := client.Insert("t", e); err == nil || !strings.Contains(err.Error(), "integer of 5001 bits is wider than 4096") {
		t.Fatalf("5001-bit key value: %v", err)
	}
}

func TestNegativeMaskSentinelStillAllowed(t *testing.T) {
	if resp := startRawConn(t).roundTrip(t, "full mask"); !resp.OK {
		t.Fatalf("full-mask sentinel rejected: %s", resp.Error)
	}
}

func TestPacketWithoutProgram(t *testing.T) {
	if resp := startRawConn(t).roundTrip(t, "packet"); resp.OK {
		t.Fatal("packet injection without a program accepted")
	}
}

// TestBuggyDefaultRejectedOverWire: the default-rule policy (paper §4.4)
// over the wire, on the NAT example's real annotation file. set_nhop
// decrements the TTL of a possibly-invalid ipv4 header — a reachable bug
// of the fixed program, so the file flags it and the shim refuses it as
// ipv4_lpm's default; drop_ holds no bug and is admitted.
func TestBuggyDefaultRejectedOverWire(t *testing.T) {
	client, stop := startServer(t)
	defer stop()
	err := client.SetDefault("ipv4_lpm", "set_nhop", []dataplane.Value{dataplane.U64(1), dataplane.U64(7)})
	if err == nil || !strings.Contains(err.Error(), "reachable bug") {
		t.Fatalf("buggy default action: got %v, want a reachable-bug rejection", err)
	}
	if err := client.SetDefault("ipv4_lpm", "drop_", nil); err != nil {
		t.Fatalf("clean default rejected: %v", err)
	}
}

// TestMalformedPayloadKeepsConnection: a payload the decoder refuses is
// answered with an error under its request's id, and the length prefix
// keeps the framing: the next request on the connection is served.
func TestMalformedPayloadKeepsConnection(t *testing.T) {
	conn := startRawConn(t)
	resp := conn.roundTripPayload(t, rawPayloads(t)["truncated"])
	if resp.OK || resp.ID != 1 || !strings.HasPrefix(resp.Error, "p4runtime: malformed request: ") {
		t.Fatalf("truncated payload: %+v", resp)
	}
	// A payload too short to hold a header is answered under id 0.
	if resp := conn.roundTripPayload(t, nil); resp.OK || resp.ID != 0 || !strings.Contains(resp.Error, "malformed") {
		t.Fatalf("empty payload: %+v", resp)
	}
	if resp := conn.roundTrip(t, "stats"); !resp.OK || resp.ID != 10 {
		t.Fatalf("stats after malformed frames: %+v", resp)
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	_, _, addr := newRawServer(t, func(s *Server) { s.MaxFrameBytes = 512 })
	for _, length := range []uint64{513, 1 << 40} {
		conn := dialRaw(t, addr)
		conn.write(t, binary.AppendUvarint(nil, length))
		if resp := conn.recv(t); resp.OK || resp.Error != errFrameTooLarge.Error() {
			t.Fatalf("length %d: %+v", length, resp)
		}
		// Framing is unrecoverable past the cap, so the server closes.
		conn.expectClosed(t)
	}
}

// TestJSONClientRefusedByPreface: a client that opens with a JSON line
// is refused by its first byte — an error frame and a close, well inside
// the read deadline — never read as frames.
func TestJSONClientRefusedByPreface(t *testing.T) {
	_, _, addr := newRawServer(t, func(s *Server) { s.ReadTimeout = time.Minute })
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(`{"id":1,"type":"stats"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	raw := &rawConn{Conn: conn, r: bufio.NewReader(conn)}
	if resp := raw.recv(t); resp.OK || resp.Error != errPreface.Error() {
		t.Fatalf("JSON line: %+v", resp)
	}
	raw.expectClosed(t)
}

// TestClientRefusesJSONServer: a server that answers in newline-delimited
// JSON is refused by the client at its first byte, not read as frames.
func TestClientRefusesJSONServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		conn.Write([]byte(`{"id":1,"ok":true}` + "\n"))
		conn.Read(make([]byte, 64))
	}()
	client, err := DialOptions(ln.Addr().String(), Options{MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, _, err := client.Stats(); err == nil || !strings.Contains(err.Error(), "the server does not open with the") {
		t.Fatalf("stats from a JSON server: %v", err)
	}
}

func TestConnectionCap(t *testing.T) {
	_, _, addr := newRawServer(t, func(s *Server) { s.MaxConns = 1 })
	conn1 := dialRaw(t, addr)
	// A round trip guarantees conn1 is registered before we dial again.
	if resp := conn1.roundTrip(t, "stats"); !resp.OK {
		t.Fatalf("stats failed: %+v", resp)
	}
	conn2 := dialRaw(t, addr)
	if resp := conn2.recv(t); resp.OK || resp.Error != "p4runtime: connection limit reached" {
		t.Fatalf("over-cap connection: %+v", resp)
	}
	conn2.expectClosed(t)
	// conn1 keeps working.
	if resp := conn1.roundTrip(t, "stats"); !resp.OK {
		t.Fatalf("capped server broke the admitted connection: %+v", resp)
	}
}

func TestDedupOverWire(t *testing.T) {
	_, sh, addr := newRawServer(t, nil)
	conn := dialRaw(t, addr)
	for i := 0; i < 3; i++ {
		if resp := conn.roundTrip(t, "c1 insert"); !resp.OK {
			t.Fatalf("retry %d failed: %+v", i, resp)
		}
	}
	if n := shadowSize(sh.Snapshot(), "t"); n != 1 {
		t.Fatalf("retried insert applied %d times", n)
	}
	// A different client with the same request ID is a distinct mutation.
	if resp := conn.roundTrip(t, "c2 insert"); !resp.OK {
		t.Fatalf("second client rejected: %+v", resp)
	}
	if n := shadowSize(sh.Snapshot(), "t"); n != 2 {
		t.Fatalf("shadow size = %d, want 2", n)
	}
}

func TestBatchOverWire(t *testing.T) {
	_, sh, addr := newRawServer(t, nil)
	conn := dialRaw(t, addr)
	// Second update names an unknown table: the whole batch rolls back.
	resp := conn.roundTrip(t, "bad batch")
	if resp.OK {
		t.Fatal("batch with unknown table accepted")
	}
	if resp.FailedIndex == nil || *resp.FailedIndex != 1 {
		t.Fatalf("FailedIndex = %v, want 1", resp.FailedIndex)
	}
	if n := shadowSize(sh.Snapshot(), "t"); n != 0 {
		t.Fatalf("rolled-back batch left %d entries", n)
	}
	if resp := conn.roundTrip(t, "good batch"); !resp.OK {
		t.Fatalf("clean batch rejected: %+v", resp)
	}
	if n := shadowSize(sh.Snapshot(), "t"); n != 1 {
		t.Fatalf("shadow size = %d, want 1", n)
	}
}

func TestShutdownDrains(t *testing.T) {
	srv, _, addr := newRawServer(t, nil)
	conn := dialRaw(t, addr)
	if resp := conn.roundTrip(t, "stats"); !resp.OK {
		t.Fatalf("stats failed: %+v", resp)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown failed: %v", err)
	}
	// The idle connection was woken and closed.
	conn.expectClosed(t)
	// No new connections are served.
	buf := make([]byte, 1)
	if c2, err := net.Dial("tcp", addr); err == nil {
		c2.SetReadDeadline(time.Now().Add(time.Second))
		if _, err := c2.Read(buf); err == nil {
			t.Fatal("server still answering after shutdown")
		}
		c2.Close()
	}
}

// shadowSize is the number of entries snap holds for table; a down shard's
// nil snapshot holds none.
func shadowSize(snap *dataplane.Snapshot, table string) int {
	if snap == nil {
		return 0
	}
	return len(snap.Entries[table])
}
