// Package p4runtime implements a minimal P4Runtime-flavoured control
// protocol over TCP. The server fronts bf4's sanitization shim (paper
// §4.4) as a fleet, one shard per switch and a single switch as a
// one-shard fleet: every table write is validated against the inferred
// controller assertions before it reaches the (simulated) dataplane;
// rejected updates return an exception to the controller, exactly the
// failure mode the paper argues controllers already handle
// (duplicate-rule errors). The server can also inject test packets,
// executing them on the dataplane interpreter against the current shadow
// snapshot.
//
// The wire is binary (wire.go): each side opens with a versioned preface,
// then sends length-prefixed frames whose payloads are in the shim's own
// encoding, so a write travels as the record the journal stores. A
// request frame is a header (id, client, switch, type) and its writes; a
// response frame carries Response's fields. Real P4Runtime likewise sends
// writes as binary protobuf messages.
//
// The layer is built to run as always-on control-plane infrastructure:
// the server enforces per-connection read/write deadlines, a maximum
// frame size and a connection cap, answers a payload it cannot decode
// with an error response and keeps the connection, answers a lost framing
// (an oversized length, a peer without the preface) with an error
// response and a close, recovers per-connection panics, and drains
// in-flight requests on Shutdown. The client reconnects automatically
// with exponential backoff and jitter, applies per-call timeouts, and
// retries idempotently: every request carries a client ID + request ID,
// and the shim keeps a dedup window of recently applied IDs so a retried
// insert after an ambiguous failure is not double-applied.
package p4runtime

import (
	"bufio"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	mrand "math/rand"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bf4/internal/dataplane"
	"bf4/internal/ir"
	"bf4/internal/obs"
	"bf4/internal/shim"
)

// Server runs the shim behind the wire protocol.
type Server struct {
	// Fleet serves the switches (a single switch is a one-shard fleet):
	// requests route to the shard named by their Switch field
	// (DefaultSwitch when empty). Shard-down failures return retryable
	// error responses. Serve refuses to start without a fleet.
	Fleet *shim.Fleet
	// DefaultSwitch names the shard for requests that omit Switch.
	DefaultSwitch string
	// Prog, when set, enables packet injection against the shadow
	// snapshot.
	Prog *ir.Program

	// ReadTimeout bounds each frame read; an idle or stalled peer is
	// disconnected after it (default 5m, negative disables).
	ReadTimeout time.Duration
	// WriteTimeout bounds each response write (default 30s, negative
	// disables).
	WriteTimeout time.Duration
	// MaxFrameBytes caps one request frame's payload (default 1 MiB). A
	// longer one is answered with an error and the connection closed,
	// before any of it is read.
	MaxFrameBytes int
	// MaxConns caps concurrent connections; extra connections receive an
	// error Response and are closed (default 0 = unlimited).
	MaxConns int
	// Obs, when non-nil, publishes server metrics: request counts and
	// latency (bf4_p4rt_requests_total, bf4_p4rt_request_errors_total,
	// bf4_p4rt_request_ns) and the live connection gauge
	// (bf4_p4rt_connections). Give the fleet the same registry
	// (FleetConfig.Obs) for the full picture. All obs calls are nil-safe.
	Obs *obs.Registry
	// met holds the handles of those metrics, looked up once per Serve.
	met struct {
		requests, errors *obs.Counter
		requestNs        *obs.Histogram
		conns            *obs.Gauge
	}

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]bool
	wg     sync.WaitGroup
	closed bool
}

func (s *Server) readTimeout() time.Duration {
	if s.ReadTimeout == 0 {
		return 5 * time.Minute
	}
	if s.ReadTimeout < 0 {
		return 0
	}
	return s.ReadTimeout
}

func (s *Server) writeTimeout() time.Duration {
	if s.WriteTimeout == 0 {
		return 30 * time.Second
	}
	if s.WriteTimeout < 0 {
		return 0
	}
	return s.WriteTimeout
}

func (s *Server) maxFrame() int {
	if s.MaxFrameBytes <= 0 {
		return 1 << 20
	}
	return s.MaxFrameBytes
}

func (s *Server) closing() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Serve accepts connections until the listener closes. After Shutdown it
// returns nil.
func (s *Server) Serve(ln net.Listener) error {
	if s.Fleet == nil {
		return errors.New("p4runtime: server has no fleet to serve")
	}
	s.mu.Lock()
	s.ln = ln
	if s.conns == nil {
		s.conns = map[net.Conn]bool{}
	}
	s.met.requests = s.Obs.Counter("bf4_p4rt_requests_total")
	s.met.errors = s.Obs.Counter("bf4_p4rt_request_errors_total")
	s.met.requestNs = s.Obs.Histogram("bf4_p4rt_request_ns", obs.DurationBuckets)
	s.met.conns = s.Obs.Gauge("bf4_p4rt_connections")
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.closing() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		if s.MaxConns > 0 && len(s.conns) >= s.MaxConns {
			s.mu.Unlock()
			conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
			conn.Write(appendResponse([]byte(preface), new(shim.Encoder), &Response{Error: "p4runtime: connection limit reached"}))
			conn.Close()
			continue
		}
		s.conns[conn] = true
		s.wg.Add(1)
		s.mu.Unlock()
		s.met.conns.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Close stops the listener immediately without draining connections; use
// Shutdown for a graceful stop.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln != nil {
		return s.ln.Close()
	}
	return nil
}

// Shutdown stops accepting, lets every in-flight request finish, then
// closes the connections. If ctx expires first the remaining
// connections are closed forcibly and ctx.Err() is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	// Wake idle readers; a handler mid-dispatch finishes its current
	// request, writes the response, then exits on the expired deadline.
	for _, c := range conns {
		c.SetReadDeadline(time.Now())
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		s.wg.Wait()
		return ctx.Err()
	}
}

func (s *Server) handle(conn net.Conn) {
	defer func() {
		// Per-connection panic recovery: a poisoned connection dies, the
		// server keeps serving everyone else.
		recover()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
		s.met.conns.Add(-1)
	}()
	r := bufio.NewReaderSize(conn, 4096)
	var enc shim.Encoder
	out := []byte(preface) // the server's preface goes out with its first frame
	send := func(resp *Response) bool {
		out = appendResponse(out, &enc, resp)
		if d := s.writeTimeout(); d > 0 {
			conn.SetWriteDeadline(time.Now().Add(d))
		}
		_, err := conn.Write(out)
		out = out[:0]
		return err == nil
	}
	if d := s.readTimeout(); d > 0 {
		conn.SetReadDeadline(time.Now().Add(d))
	}
	if err := readPreface(r); err != nil {
		// Another protocol, an older client's JSON line say: refuse it
		// rather than read its bytes as frames.
		if err == errPreface {
			send(&Response{Error: err.Error()})
		}
		return
	}
	var payload []byte
	for !s.closing() {
		if d := s.readTimeout(); d > 0 {
			conn.SetReadDeadline(time.Now().Add(d))
		}
		p, err := readFramePayload(r, s.maxFrame(), payload)
		if err == errFrameTooLarge {
			// The framing is lost beyond recovery: answer, then close.
			send(&Response{Error: err.Error()})
			return
		}
		if err != nil {
			return
		}
		payload = p
		// A payload that does not decode is answered; the length prefix
		// keeps the framing, so the connection stays.
		if !send(s.serve(payload)) {
			return
		}
	}
}

// serve answers one request frame's payload.
func (s *Server) serve(payload []byte) *Response {
	req, err := decodeRequest(payload)
	if err != nil {
		return &Response{ID: req.ID, Error: "p4runtime: malformed request: " + err.Error()}
	}
	return s.dispatchSafe(req)
}

// dispatchSafe turns a dispatch panic into an error Response and records
// request metrics (count, error count, latency) when Obs is attached.
func (s *Server) dispatchSafe(req *wireRequest) (resp *Response) {
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			resp = &Response{ID: req.ID, OK: false,
				Error: fmt.Sprintf("p4runtime: internal error: %v", r)}
		}
		s.met.requests.Inc()
		if resp != nil && !resp.OK {
			s.met.errors.Inc()
		}
		s.met.requestNs.Observe(int64(time.Since(start)))
	}()
	return s.dispatch(req)
}

// dedupKey builds the idempotency key for a mutation ("" disables
// dedup for clients that do not identify themselves).
func dedupKey(req *wireRequest) string {
	if req.Client == "" {
		return ""
	}
	return req.Client + ":" + strconv.FormatInt(req.ID, 10)
}

// target resolves the fleet shard a request runs against: the named one,
// or the default.
func (s *Server) target(req *wireRequest) (*shim.Shard, error) {
	id := req.Switch
	if id == "" {
		id = s.DefaultSwitch
	}
	if id == "" {
		return nil, fmt.Errorf("p4runtime: no switch specified and no default configured")
	}
	sd := s.Fleet.Shard(id)
	if sd == nil {
		return nil, fmt.Errorf("p4runtime: unknown switch %q", id)
	}
	return sd, nil
}

func (s *Server) dispatch(req *wireRequest) *Response {
	resp := &Response{ID: req.ID}
	fail := func(err error) *Response {
		resp.OK = false
		resp.Error = err.Error()
		var sde *shim.ShardDownError
		if errors.As(err, &sde) {
			resp.Retryable = true
		}
		return resp
	}
	if req.Type == "health" {
		resp.OK = true
		resp.Shards = s.Fleet.Health()
		return resp
	}
	sd, terr := s.target(req)
	if terr != nil {
		return fail(terr)
	}
	switch req.Type {
	case "insert", "validate", "set_default":
		u, err := singleWrite(req)
		if err == nil {
			if req.Type == "validate" {
				err = sd.Validate(u)
			} else {
				err = sd.ApplyWithKey(dedupKey(req), u)
			}
		}
		if err != nil {
			return fail(err)
		}
		resp.OK = true
	case "batch":
		if len(req.Writes) == 0 {
			return fail(fmt.Errorf("p4runtime: empty batch"))
		}
		if err := sd.ApplyBatchWithKey(dedupKey(req), req.Writes); err != nil {
			var be *shim.BatchError
			if errors.As(err, &be) {
				idx := be.Index
				resp.FailedIndex = &idx
			}
			return fail(err)
		}
		resp.OK = true
	case "packet":
		if s.Prog == nil {
			return fail(fmt.Errorf("p4runtime: packet injection not enabled"))
		}
		pkt := req.Packet
		if pkt == nil {
			pkt = dataplane.Packet{}
		}
		if err := pkt.Check(s.Prog); err != nil {
			return fail(err)
		}
		snap := sd.Snapshot()
		if snap == nil {
			return fail(&shim.ShardDownError{ID: sd.ID(), State: sd.State(), Reason: "no live shadow snapshot"})
		}
		interp := &dataplane.Interp{P: s.Prog, Snapshot: snap, Inputs: pkt}
		tr, err := interp.Run()
		if err != nil {
			return fail(err)
		}
		resp.OK = true
		spec := tr.EgressSpec()
		resp.EgressSpec = &spec
		if tr.Bug() {
			resp.Bug = true
			resp.BugKind = tr.Terminal.Bug.String()
		}
	case "stats":
		st := sd.Counters()
		resp.OK = true
		resp.Validated = st.Validated
		resp.Rejected = st.Rejected
	default:
		return fail(fmt.Errorf("p4runtime: unknown request type %q", req.Type))
	}
	return resp
}

// singleWrite is the one write of an insert, validate or set_default
// request, the op its type names.
func singleWrite(req *wireRequest) (*shim.Update, error) {
	switch {
	case len(req.Writes) == 0:
		return nil, errors.New("p4runtime: missing entry")
	case len(req.Writes) > 1:
		return nil, fmt.Errorf("p4runtime: %s request carries %d writes, want one", req.Type, len(req.Writes))
	case req.Type == "set_default" && req.Writes[0].SetDefault == nil:
		return nil, errors.New("p4runtime: set_default request carries an entry, not a default action")
	case req.Type != "set_default" && req.Writes[0].Entry == nil:
		return nil, fmt.Errorf("p4runtime: %s request carries a default action, not an entry", req.Type)
	}
	return req.Writes[0], nil
}

// Options tunes the client's resilience behavior. The zero value gives
// sane production defaults.
type Options struct {
	// CallTimeout bounds one request/response round trip (default 30s).
	CallTimeout time.Duration
	// MaxAttempts is the total number of tries per call, reconnecting
	// between attempts (default 10; 1 disables retries).
	MaxAttempts int
	// BackoffBase is the first retry delay; it doubles per attempt up to
	// BackoffMax, with jitter (defaults 10ms / 1s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed makes the client ID deterministic (0 = random). Backoff
	// jitter additionally mixes in a process-unique per-client salt, so
	// two clients that share a Seed never back off in lockstep (a fleet
	// of identically-configured controllers must not reconnect as a
	// synchronized herd after a shard restart). Give each client its own
	// Seed regardless: the client ID feeds the idempotency key, and two
	// clients with one ID would dedup against each other's requests.
	Seed int64
	// Switch stamps every request with a target switch for fleet
	// servers (empty uses the server's default).
	Switch string
	// Dialer overrides the transport (e.g. a faultnet.Dialer for chaos
	// tests). The default dials addr over TCP.
	Dialer func() (net.Conn, error)
}

// Client is the controller side of the protocol. Calls are safe for
// concurrent use; each call is retried across reconnects, and because
// every request carries (client ID, request ID) the shim applies a
// retried mutation at most once.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	r    *bufio.Reader
	// opened: the client's preface went out on conn; greeted: the
	// server's came in.
	opened, greeted bool
	// enc encodes a request's payload, out holds the preface and the
	// request's frame, in the last response's payload.
	enc     shim.Encoder
	out, in []byte
	next    int64
	id      string
	opts    Options
	// jrng drives backoff jitter only. It is never shared and never
	// seeded identically across clients (see Options.Seed).
	jrng *mrand.Rand
}

// clientSalt makes every client's jitter stream unique within the
// process, whatever seeds callers pass.
var clientSalt atomic.Int64

// Dial connects to a shim server with default resilience options.
func Dial(addr string) (*Client, error) { return DialOptions(addr, Options{}) }

// DialOptions connects with explicit resilience options.
func DialOptions(addr string, opts Options) (*Client, error) {
	if opts.Dialer == nil {
		opts.Dialer = func() (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 5*time.Second)
		}
	}
	c := newClient(opts)
	conn, err := opts.Dialer()
	if err != nil {
		return nil, err
	}
	c.setConn(conn)
	return c, nil
}

func newClient(opts Options) *Client {
	if opts.CallTimeout == 0 {
		opts.CallTimeout = 30 * time.Second
	}
	if opts.MaxAttempts == 0 {
		opts.MaxAttempts = 10
	}
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = 10 * time.Millisecond
	}
	if opts.BackoffMax <= 0 {
		opts.BackoffMax = time.Second
	}
	seed := opts.Seed
	if seed == 0 {
		var b [8]byte
		rand.Read(b[:])
		for i, x := range b {
			seed |= int64(x) << (8 * i)
		}
		seed &= 1<<62 - 1
	}
	rng := mrand.New(mrand.NewSource(seed))
	var idb [6]byte
	rng.Read(idb[:])
	jseed := int64(uint64(seed) ^ uint64(clientSalt.Add(1))*0x9e3779b97f4a7c15)
	return &Client{
		opts: opts,
		id:   hex.EncodeToString(idb[:]),
		jrng: mrand.New(mrand.NewSource(jseed)),
	}
}

// ID returns the client's wire identity (used for idempotent retries).
func (c *Client) ID() string { return c.id }

func (c *Client) setConn(conn net.Conn) {
	c.conn = conn
	c.r = bufio.NewReader(conn)
	c.opened, c.greeted = false, false
}

// Close closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// backoffDelay computes the sleep before retry attempt a (a ≥ 1):
// exponential in a, capped, jittered over [cap/2, cap] from the
// client's private jitter stream.
func (c *Client) backoffDelay(a int) time.Duration {
	d := c.opts.BackoffBase << (a - 1)
	if d > c.opts.BackoffMax || d <= 0 {
		d = c.opts.BackoffMax
	}
	return d/2 + time.Duration(c.jrng.Int63n(int64(d/2)+1))
}

// backoff sleeps before retry attempt a; the jitter keeps a fleet of
// reconnecting controllers spread out instead of herding.
func (c *Client) backoff(a int) {
	time.Sleep(c.backoffDelay(a))
}

func (c *Client) roundTrip(req *wireRequest) (*Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.next++
	req.ID = c.next
	req.Client = c.id
	if req.Switch == "" {
		req.Switch = c.opts.Switch
	}
	// One encoding serves every attempt.
	c.enc = shim.Encoder{Buf: c.enc.Buf[:0]}
	encodeRequest(&c.enc, req)
	if c.enc.Err != nil {
		return nil, fmt.Errorf("p4runtime: cannot encode the %s request: %w", req.Type, c.enc.Err)
	}
	c.out = appendFrame(append(c.out[:0], preface...), c.enc.Buf)

	var lastErr error
	for attempt := 0; attempt < c.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.backoff(attempt)
		}
		if c.conn == nil {
			conn, err := c.opts.Dialer()
			if err != nil {
				lastErr = err
				continue
			}
			c.setConn(conn)
		}
		resp, err := c.try(req.ID)
		if err == nil {
			if !resp.OK && resp.Retryable && attempt+1 < c.opts.MaxAttempts {
				// Transient server-side failure (shard down/restoring):
				// back off and resend the same request — the idempotency
				// key makes the retry at-most-once.
				lastErr = fmt.Errorf("p4runtime: retryable: %s", resp.Error)
				continue
			}
			return resp, nil
		}
		lastErr = err
		c.conn.Close()
		c.conn = nil
	}
	return nil, fmt.Errorf("p4runtime: %s request failed after %d attempts: %w",
		req.Type, c.opts.MaxAttempts, lastErr)
}

// try performs one round trip of the frame in c.out, request id, on the
// current connection.
func (c *Client) try(id int64) (*Response, error) {
	if d := c.opts.CallTimeout; d > 0 {
		c.conn.SetDeadline(time.Now().Add(d))
		defer c.conn.SetDeadline(time.Time{})
	}
	out := c.out
	if c.opened {
		out = out[len(preface):]
	}
	if _, err := c.conn.Write(out); err != nil {
		return nil, err
	}
	c.opened = true
	if !c.greeted {
		if err := readPreface(c.r); err == errPreface {
			return nil, fmt.Errorf("p4runtime: the server does not open with the %q preface", preface)
		} else if err != nil {
			return nil, err
		}
		c.greeted = true
	}
	for {
		payload, err := readFramePayload(c.r, maxResponseBytes, c.in)
		if err != nil {
			return nil, err
		}
		c.in = payload
		resp, err := decodeResponse(payload)
		if err != nil {
			return nil, fmt.Errorf("p4runtime: malformed response: %w", err)
		}
		switch {
		case resp.ID == id:
			return resp, nil
		case resp.ID == 0 && !resp.OK:
			// Connection-level error (frame limit, conn cap, preface,
			// undecodable header): surface it; the caller reconnects and
			// retries.
			return nil, fmt.Errorf("p4runtime: server error: %s", resp.Error)
		case resp.ID < id:
			continue // stale response from an earlier request; skip
		default:
			return nil, fmt.Errorf("p4runtime: response id %d for request %d", resp.ID, id)
		}
	}
}

// insert is the request of an entry insert (or validate) to table.
func insert(typ, table string, e *dataplane.Entry) *wireRequest {
	return &wireRequest{Type: typ, Writes: []*shim.Update{{Table: table, Entry: e}}}
}

// Insert adds a table entry; a *RejectionError-shaped error means the
// shim refused it.
func (c *Client) Insert(table string, e *dataplane.Entry) error {
	resp, err := c.roundTrip(insert("insert", table, e))
	if err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("%s", resp.Error)
	}
	return nil
}

// Validate checks an entry without inserting it.
func (c *Client) Validate(table string, e *dataplane.Entry) error {
	resp, err := c.roundTrip(insert("validate", table, e))
	if err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("%s", resp.Error)
	}
	return nil
}

// SetDefault changes a table's default action.
func (c *Client) SetDefault(table, action string, params []dataplane.Value) error {
	d := &dataplane.DefaultAction{Action: action, Params: params}
	resp, err := c.roundTrip(&wireRequest{Type: "set_default", Writes: []*shim.Update{{Table: table, SetDefault: d}}})
	if err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("%s", resp.Error)
	}
	return nil
}

// BatchOp is one element of a client-side batch: set Entry for an
// insert, Default for a default-action change.
type BatchOp struct {
	Table   string
	Entry   *dataplane.Entry
	Default *dataplane.DefaultAction
}

// BatchRejectedError reports a rejected (and fully rolled back) batch.
type BatchRejectedError struct {
	// Index is the offending update's position, or -1 if unknown.
	Index   int
	Message string
}

func (e *BatchRejectedError) Error() string { return e.Message }

// WriteBatch applies a rule bundle atomically: either every update is
// validated and applied, or none is and a *BatchRejectedError reports
// the first offender.
func (c *Client) WriteBatch(ops []BatchOp) error {
	writes := make([]shim.Update, len(ops))
	req := &wireRequest{Type: "batch", Writes: make([]*shim.Update, len(ops))}
	for i, op := range ops {
		w := &writes[i]
		w.Table = op.Table
		switch {
		case op.Entry != nil:
			w.Entry = op.Entry
		case op.Default != nil:
			w.SetDefault = op.Default
		default:
			return fmt.Errorf("p4runtime: batch op for table %s has neither entry nor default", op.Table)
		}
		req.Writes[i] = w
	}
	resp, err := c.roundTrip(req)
	if err != nil {
		return err
	}
	if !resp.OK {
		idx := -1
		if resp.FailedIndex != nil {
			idx = *resp.FailedIndex
		}
		return &BatchRejectedError{Index: idx, Message: resp.Error}
	}
	return nil
}

// PacketResult reports the outcome of an injected packet.
type PacketResult struct {
	EgressSpec int64
	Bug        bool
	BugKind    string
}

// SendPacket injects a packet (field name → value) into the dataplane.
func (c *Client) SendPacket(fields map[string]int64) (*PacketResult, error) {
	pkt := dataplane.Packet{}
	for k, v := range fields {
		pkt.SetField(k, v)
	}
	resp, err := c.roundTrip(&wireRequest{Type: "packet", Packet: pkt})
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, fmt.Errorf("%s", resp.Error)
	}
	out := &PacketResult{Bug: resp.Bug, BugKind: resp.BugKind}
	if resp.EgressSpec != nil {
		out.EgressSpec = *resp.EgressSpec
	}
	return out, nil
}

// Health fetches the server's per-shard lifecycle states (switch id →
// "healthy" | "restoring" | "down").
func (c *Client) Health() (map[string]string, error) {
	resp, err := c.roundTrip(&wireRequest{Type: "health"})
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, fmt.Errorf("%s", resp.Error)
	}
	return resp.Shards, nil
}

// Stats fetches shim counters.
func (c *Client) Stats() (validated, rejected int, err error) {
	resp, err := c.roundTrip(&wireRequest{Type: "stats"})
	if err != nil {
		return 0, 0, err
	}
	if !resp.OK {
		return 0, 0, fmt.Errorf("%s", resp.Error)
	}
	return resp.Validated, resp.Rejected, nil
}
