package p4runtime

import (
	"bufio"
	"context"
	"encoding/json"
	"math/big"
	"net"
	"strings"
	"testing"
	"time"

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

func startRawServer(t *testing.T) (net.Conn, func()) {
	t.Helper()
	_, _, addr := newRawServer(t, nil)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return conn, func() { conn.Close() }
}

func roundTripRaw(t *testing.T, conn net.Conn, req string) *Response {
	t.Helper()
	if _, err := conn.Write([]byte(req + "\n")); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := json.NewDecoder(bufio.NewReader(conn)).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	return &resp
}

func TestUnknownRequestType(t *testing.T) {
	conn, stop := startRawServer(t)
	defer stop()
	resp := roundTripRaw(t, conn, `{"id":1,"type":"frobnicate"}`)
	if resp.OK || resp.Error == "" {
		t.Fatalf("unknown request accepted: %+v", resp)
	}
	if resp.ID != 1 {
		t.Fatalf("response id = %d", resp.ID)
	}
}

func TestMissingEntry(t *testing.T) {
	conn, stop := startRawServer(t)
	defer stop()
	resp := roundTripRaw(t, conn, `{"id":2,"type":"insert","table":"t"}`)
	if resp.OK {
		t.Fatal("insert without entry accepted")
	}
}

func TestBadIntegerValue(t *testing.T) {
	conn, stop := startRawServer(t)
	defer stop()
	resp := roundTripRaw(t, conn,
		`{"id":3,"type":"insert","table":"t","entry":{"keys":[{"value":"zap"}],"action":"NoAction"}}`)
	if resp.OK {
		t.Fatal("bad integer accepted")
	}
}

func TestNegativeValueRejected(t *testing.T) {
	conn, stop := startRawServer(t)
	defer stop()
	resp := roundTripRaw(t, conn,
		`{"id":4,"type":"insert","table":"t","entry":{"keys":[{"value":"-7"}],"action":"NoAction"}}`)
	if resp.OK {
		t.Fatal("negative key value accepted")
	}
	if !strings.Contains(resp.Error, "negative") {
		t.Fatalf("unhelpful error: %q", resp.Error)
	}
}

func TestAbsurdlyWideValueRejected(t *testing.T) {
	conn, stop := startRawServer(t)
	defer stop()
	wide := strings.Repeat("9", 2000)
	resp := roundTripRaw(t, conn,
		`{"id":5,"type":"insert","table":"t","entry":{"keys":[{"value":"`+wide+`"}],"action":"NoAction"}}`)
	if resp.OK {
		t.Fatal("2000-digit key value accepted")
	}
}

func TestNegativeMaskSentinelStillAllowed(t *testing.T) {
	conn, stop := startRawServer(t)
	defer stop()
	resp := roundTripRaw(t, conn,
		`{"id":6,"type":"validate","table":"t","entry":{"keys":[{"value":"1","mask":"-1"}],"action":"NoAction"}}`)
	if !resp.OK {
		t.Fatalf("full-mask sentinel rejected: %s", resp.Error)
	}
}

func TestPacketWithoutProgram(t *testing.T) {
	conn, stop := startRawServer(t)
	defer stop()
	resp := roundTripRaw(t, conn, `{"id":7,"type":"packet","packet":{"x":"1"}}`)
	if resp.OK {
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
	err := client.SetDefault("ipv4_lpm", "set_nhop", []*big.Int{big.NewInt(1), big.NewInt(7)})
	if err == nil || !strings.Contains(err.Error(), "reachable bug") {
		t.Fatalf("buggy default action: got %v, want a reachable-bug rejection", err)
	}
	if err := client.SetDefault("ipv4_lpm", "drop_", nil); err != nil {
		t.Fatalf("clean default rejected: %v", err)
	}
}

func TestMalformedJSONReturnsErrorAndKeepsConnection(t *testing.T) {
	conn, stop := startRawServer(t)
	defer stop()
	r := bufio.NewReader(conn)
	if _, err := conn.Write([]byte("{nope\n")); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := json.NewDecoder(r).Decode(&resp); err != nil {
		t.Fatalf("no error response on malformed JSON: %v", err)
	}
	if resp.OK || !strings.Contains(resp.Error, "malformed") {
		t.Fatalf("unexpected response: %+v", resp)
	}
	// Newline framing resyncs: the connection is still usable.
	if _, err := conn.Write([]byte(`{"id":10,"type":"stats"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(r).Decode(&resp); err != nil {
		t.Fatalf("connection dead after malformed frame: %v", err)
	}
	if !resp.OK || resp.ID != 10 {
		t.Fatalf("stats after malformed frame: %+v", resp)
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	_, _, addr := newRawServer(t, func(s *Server) { s.MaxFrameBytes = 512 })
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	huge := `{"id":1,"type":"insert","junk":"` + strings.Repeat("x", 4096) + `"}` + "\n"
	if _, err := conn.Write([]byte(huge)); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	var resp Response
	if err := json.NewDecoder(r).Decode(&resp); err != nil {
		t.Fatalf("no error response on oversized frame: %v", err)
	}
	if resp.OK || !strings.Contains(resp.Error, "frame") {
		t.Fatalf("unexpected response: %+v", resp)
	}
	// Framing is unrecoverable past the cap, so the server closes.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := r.Read(buf); err == nil {
		t.Fatal("connection still open after frame-limit violation")
	}
}

func TestConnectionCap(t *testing.T) {
	_, _, addr := newRawServer(t, func(s *Server) { s.MaxConns = 1 })
	conn1, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn1.Close()
	// A round trip guarantees conn1 is registered before we dial again.
	if resp := roundTripRaw(t, conn1, `{"id":1,"type":"stats"}`); !resp.OK {
		t.Fatalf("stats failed: %+v", resp)
	}
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	conn2.SetReadDeadline(time.Now().Add(5 * time.Second))
	var resp Response
	if err := json.NewDecoder(bufio.NewReader(conn2)).Decode(&resp); err != nil {
		t.Fatalf("no rejection from over-cap connection: %v", err)
	}
	if resp.OK || !strings.Contains(resp.Error, "connection limit") {
		t.Fatalf("unexpected response: %+v", resp)
	}
	// conn1 keeps working.
	if resp := roundTripRaw(t, conn1, `{"id":2,"type":"stats"}`); !resp.OK {
		t.Fatalf("capped server broke the admitted connection: %+v", resp)
	}
}

func TestDedupOverWire(t *testing.T) {
	_, sh, addr := newRawServer(t, nil)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := `{"id":1,"client":"c1","type":"insert","table":"t","entry":{"keys":[{"value":"3"}],"action":"NoAction"}}`
	for i := 0; i < 3; i++ {
		if resp := roundTripRaw(t, conn, req); !resp.OK {
			t.Fatalf("retry %d failed: %+v", i, resp)
		}
	}
	if n := sh.ShadowSize("t"); n != 1 {
		t.Fatalf("retried insert applied %d times", n)
	}
	// A different client with the same request ID is a distinct mutation.
	req2 := `{"id":1,"client":"c2","type":"insert","table":"t","entry":{"keys":[{"value":"4"}],"action":"NoAction"}}`
	if resp := roundTripRaw(t, conn, req2); !resp.OK {
		t.Fatalf("second client rejected: %+v", resp)
	}
	if n := sh.ShadowSize("t"); n != 2 {
		t.Fatalf("shadow size = %d, want 2", n)
	}
}

func TestBatchOverWire(t *testing.T) {
	_, sh, addr := newRawServer(t, nil)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Second update names an unknown table: the whole batch rolls back.
	bad := `{"id":1,"type":"batch","updates":[` +
		`{"op":"insert","table":"t","entry":{"keys":[{"value":"1"}],"action":"NoAction"}},` +
		`{"op":"insert","table":"ghost","entry":{"keys":[{"value":"2"}],"action":"NoAction"}}]}`
	resp := roundTripRaw(t, conn, bad)
	if resp.OK {
		t.Fatal("batch with unknown table accepted")
	}
	if resp.FailedIndex == nil || *resp.FailedIndex != 1 {
		t.Fatalf("FailedIndex = %v, want 1", resp.FailedIndex)
	}
	if n := sh.ShadowSize("t"); n != 0 {
		t.Fatalf("rolled-back batch left %d entries", n)
	}
	good := `{"id":2,"type":"batch","updates":[` +
		`{"op":"insert","table":"t","entry":{"keys":[{"value":"1"}],"action":"NoAction"}},` +
		`{"op":"set_default","table":"t","entry":{"keys":[],"action":"NoAction"}}]}`
	if resp := roundTripRaw(t, conn, good); !resp.OK {
		t.Fatalf("clean batch rejected: %+v", resp)
	}
	if n := sh.ShadowSize("t"); n != 1 {
		t.Fatalf("shadow size = %d, want 1", n)
	}
}

func TestShutdownDrains(t *testing.T) {
	srv, _, addr := newRawServer(t, nil)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if resp := roundTripRaw(t, conn, `{"id":1,"type":"stats"}`); !resp.OK {
		t.Fatalf("stats failed: %+v", resp)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown failed: %v", err)
	}
	// The idle connection was woken and closed.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("connection still open after shutdown")
	}
	// No new connections are served.
	if c2, err := net.Dial("tcp", addr); err == nil {
		c2.SetReadDeadline(time.Now().Add(time.Second))
		if _, err := c2.Read(buf); err == nil {
			t.Fatal("server still answering after shutdown")
		}
		c2.Close()
	}
}
