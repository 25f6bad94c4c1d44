// Package p4runtime implements a minimal P4Runtime-flavoured control
// protocol over TCP with newline-delimited JSON framing. The server
// fronts bf4's sanitization shim (paper §4.4) as a fleet, one shard per
// switch and a single switch as a one-shard fleet: every table write is
// validated against the inferred controller assertions before it reaches
// the (simulated) dataplane; rejected updates return an exception to the
// controller, exactly the failure mode the paper argues controllers
// already handle (duplicate-rule errors). The server can also inject test
// packets, executing them on the dataplane interpreter against the
// current shadow snapshot.
//
// The layer is built to run as always-on control-plane infrastructure:
// the server enforces per-connection read/write deadlines, a maximum
// frame size and a connection cap, answers malformed frames with an
// error Response instead of a silent close, recovers per-connection
// panics, and drains in-flight requests on Shutdown. The client
// reconnects automatically with exponential backoff and jitter, applies
// per-call timeouts, and retries idempotently: every request carries a
// client ID + request ID, and the shim keeps a dedup window of recently
// applied IDs so a retried insert after an ambiguous failure is not
// double-applied.
package p4runtime

import (
	"bufio"
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
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
	"bf4/internal/smt"
)

// MaxValueBits bounds wire integers; anything wider is rejected before
// it can reach the bitvector layer. It is the width bound smt.Parse holds
// spec-file conditions to.
const MaxValueBits = smt.MaxWidth

// KeyMatchMsg is the wire form of a key match. Values are decimal
// strings (bitvector widths exceed int64).
type KeyMatchMsg struct {
	Value     string `json:"value"`
	Mask      string `json:"mask,omitempty"`
	PrefixLen *int   `json:"prefix_len,omitempty"`
}

// EntryMsg is the wire form of a table entry.
type EntryMsg struct {
	Keys     []KeyMatchMsg `json:"keys"`
	Action   string        `json:"action"`
	Params   []string      `json:"params,omitempty"`
	Priority int           `json:"priority,omitempty"`
}

// UpdateMsg is one element of an atomic batch.
type UpdateMsg struct {
	// Op is "insert" or "set_default".
	Op    string    `json:"op"`
	Table string    `json:"table"`
	Entry *EntryMsg `json:"entry"`
}

// Request is one controller→shim message.
type Request struct {
	ID int64 `json:"id"`
	// Client identifies the sender for idempotent retries: the shim
	// dedups mutations on (client, id).
	Client string `json:"client,omitempty"`
	// Switch routes the request to one shard of the server's fleet. Empty
	// selects the server's DefaultSwitch.
	Switch string            `json:"switch,omitempty"`
	Type   string            `json:"type"` // insert | set_default | validate | batch | packet | stats | health
	Table  string            `json:"table,omitempty"`
	Entry  *EntryMsg         `json:"entry,omitempty"`
	Update []UpdateMsg       `json:"updates,omitempty"`
	Packet map[string]string `json:"packet,omitempty"`
}

// Response is one shim→controller message.
type Response struct {
	ID    int64  `json:"id"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`

	// Retryable marks a failure that is expected to clear (shard down or
	// restoring): the client should back off and retry the same request —
	// its idempotency key makes the retry safe.
	Retryable bool `json:"retryable,omitempty"`

	// FailedIndex reports which update of a rejected batch failed.
	FailedIndex *int `json:"failed_index,omitempty"`

	// Shards is the health-request result: switch id → lifecycle state.
	Shards map[string]string `json:"shards,omitempty"`

	// Packet-injection results.
	EgressSpec *int64 `json:"egress_spec,omitempty"`
	Bug        bool   `json:"bug,omitempty"`
	BugKind    string `json:"bug_kind,omitempty"`

	// Stats results.
	Validated int `json:"validated,omitempty"`
	Rejected  int `json:"rejected,omitempty"`
}

func parseBig(s string) (*big.Int, error) {
	if s == "" {
		return big.NewInt(0), nil
	}
	if len(s) > MaxValueBits/3 {
		return nil, fmt.Errorf("p4runtime: integer literal of %d chars exceeds the wire limit", len(s))
	}
	v, ok := new(big.Int).SetString(s, 0)
	if !ok {
		return nil, fmt.Errorf("p4runtime: bad integer %q", s)
	}
	if v.Sign() < 0 {
		return nil, fmt.Errorf("p4runtime: negative value %q not allowed", s)
	}
	if v.BitLen() > MaxValueBits {
		return nil, fmt.Errorf("p4runtime: value %q is %d bits wide, limit %d", s, v.BitLen(), MaxValueBits)
	}
	return v, nil
}

// ParseValue parses a wire integer (decimal, 0x…, 0b…), rejecting
// negative or absurdly wide values with a clear error.
func ParseValue(s string) (*big.Int, error) { return parseBig(s) }

// parseMask parses a ternary mask. "-1" is the established dataplane
// sentinel for "match every bit" (two's-complement all-ones at any
// width), so it is the one negative value allowed on the wire.
func parseMask(s string) (*big.Int, error) {
	if s == "-1" {
		return big.NewInt(-1), nil
	}
	return parseBig(s)
}

// DecodeEntry converts a wire entry to a dataplane entry.
func DecodeEntry(m *EntryMsg) (*dataplane.Entry, error) {
	e := &dataplane.Entry{Action: m.Action, Priority: m.Priority}
	for _, km := range m.Keys {
		v, err := parseBig(km.Value)
		if err != nil {
			return nil, err
		}
		dk := dataplane.KeyMatch{Value: v, PrefixLen: -1}
		if km.Mask != "" {
			mv, err := parseMask(km.Mask)
			if err != nil {
				return nil, err
			}
			dk.Mask = mv
		}
		if km.PrefixLen != nil {
			dk.PrefixLen = *km.PrefixLen
		}
		e.Keys = append(e.Keys, dk)
	}
	for _, p := range m.Params {
		v, err := parseBig(p)
		if err != nil {
			return nil, err
		}
		e.Params = append(e.Params, v)
	}
	return e, nil
}

// EncodeEntry converts a dataplane entry to wire form.
func EncodeEntry(e *dataplane.Entry) *EntryMsg {
	m := &EntryMsg{Action: e.Action, Priority: e.Priority}
	for _, k := range e.Keys {
		km := KeyMatchMsg{Value: k.Value.String()}
		if k.Mask != nil {
			km.Mask = k.Mask.String()
		}
		if k.PrefixLen >= 0 {
			pl := k.PrefixLen
			km.PrefixLen = &pl
		}
		m.Keys = append(m.Keys, km)
	}
	for _, p := range e.Params {
		m.Params = append(m.Params, p.String())
	}
	return m
}

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
	// MaxFrameBytes caps one request frame (default 1 MiB).
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
			json.NewEncoder(conn).Encode(&Response{OK: false, Error: "p4runtime: connection limit reached"})
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

var errFrameTooLarge = errors.New("p4runtime: frame exceeds size limit")

// readFrame reads one newline-delimited frame, enforcing the size cap.
// A partial frame cut off by EOF is an error, never a request.
func readFrame(r *bufio.Reader, max int) ([]byte, error) {
	var buf []byte
	for {
		chunk, err := r.ReadSlice('\n')
		buf = append(buf, chunk...)
		if len(buf) > max {
			return nil, errFrameTooLarge
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		if err != nil {
			return nil, err
		}
		return buf, nil
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
	enc := json.NewEncoder(conn)
	for !s.closing() {
		if d := s.readTimeout(); d > 0 {
			conn.SetReadDeadline(time.Now().Add(d))
		}
		frame, err := readFrame(r, s.maxFrame())
		if err == errFrameTooLarge {
			// The framing is lost beyond recovery: answer, then close.
			s.writeResponse(conn, enc, &Response{OK: false, Error: errFrameTooLarge.Error()})
			return
		}
		if err != nil {
			return
		}
		if len(bytes.TrimSpace(frame)) == 0 {
			continue
		}
		var req Request
		if err := json.Unmarshal(frame, &req); err != nil {
			// Newline framing survives malformed JSON: report the error
			// on the wire and keep the connection.
			if !s.writeResponse(conn, enc, &Response{OK: false,
				Error: "p4runtime: malformed request: " + err.Error()}) {
				return
			}
			continue
		}
		if !s.writeResponse(conn, enc, s.dispatchSafe(&req)) {
			return
		}
	}
}

func (s *Server) writeResponse(conn net.Conn, enc *json.Encoder, resp *Response) bool {
	if d := s.writeTimeout(); d > 0 {
		conn.SetWriteDeadline(time.Now().Add(d))
	}
	return enc.Encode(resp) == nil
}

// dispatchSafe turns a dispatch panic into an error Response and records
// request metrics (count, error count, latency) when Obs is attached.
func (s *Server) dispatchSafe(req *Request) (resp *Response) {
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
func dedupKey(req *Request) string {
	if req.Client == "" {
		return ""
	}
	return req.Client + ":" + strconv.FormatInt(req.ID, 10)
}

// target resolves the fleet shard a request runs against: the named one,
// or the default.
func (s *Server) target(req *Request) (*shim.Shard, error) {
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

func (s *Server) dispatch(req *Request) *Response {
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
		op := req.Type
		if op == "validate" {
			op = "insert"
		}
		u, err := decodeUpdate(-1, op, req.Table, req.Entry)
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
		if len(req.Update) == 0 {
			return fail(fmt.Errorf("p4runtime: empty batch"))
		}
		updates := make([]*shim.Update, 0, len(req.Update))
		for i, um := range req.Update {
			u, err := decodeUpdate(i, um.Op, um.Table, um.Entry)
			if err != nil {
				return fail(err)
			}
			updates = append(updates, u)
		}
		if err := sd.ApplyBatchWithKey(dedupKey(req), updates); err != nil {
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
		pkt := dataplane.Packet{}
		for name, val := range req.Packet {
			v, err := parseBig(val)
			if err != nil {
				return fail(err)
			}
			pkt[name] = v
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
		st := sd.Stats()
		resp.OK = true
		resp.Validated = st.Validated
		resp.Rejected = st.Rejected
	default:
		return fail(fmt.Errorf("p4runtime: unknown request type %q", req.Type))
	}
	return resp
}

// decodeUpdate turns one wire write into a shim update; op is "insert" or
// "set_default". i is the write's place in a batch, -1 outside one, and
// words the errors only.
func decodeUpdate(i int, op, table string, m *EntryMsg) (*shim.Update, error) {
	if m == nil {
		if i < 0 {
			return nil, errors.New("p4runtime: missing entry")
		}
		return nil, fmt.Errorf("p4runtime: batch update %d missing entry", i)
	}
	e, err := DecodeEntry(m)
	if err != nil {
		if i < 0 {
			return nil, err
		}
		return nil, fmt.Errorf("p4runtime: batch update %d: %w", i, err)
	}
	switch op {
	case "insert":
		return &shim.Update{Table: table, Entry: e}, nil
	case "set_default":
		return &shim.Update{Table: table, SetDefault: &dataplane.DefaultAction{Action: e.Action, Params: e.Params}}, nil
	}
	return nil, fmt.Errorf("p4runtime: batch update %d has unknown op %q", i, op)
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
	enc  *json.Encoder
	dec  *json.Decoder
	next int64
	id   string
	opts Options
	rng  *mrand.Rand
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
		rng:  rng,
		jrng: mrand.New(mrand.NewSource(jseed)),
	}
}

// ID returns the client's wire identity (used for idempotent retries).
func (c *Client) ID() string { return c.id }

func (c *Client) setConn(conn net.Conn) {
	c.conn = conn
	c.enc = json.NewEncoder(conn)
	c.dec = json.NewDecoder(bufio.NewReader(conn))
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

func (c *Client) roundTrip(req *Request) (*Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.next++
	req.ID = c.next
	req.Client = c.id
	if req.Switch == "" {
		req.Switch = c.opts.Switch
	}

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
		resp, err := c.try(req)
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

// try performs one round trip on the current connection.
func (c *Client) try(req *Request) (*Response, error) {
	if d := c.opts.CallTimeout; d > 0 {
		c.conn.SetDeadline(time.Now().Add(d))
		defer c.conn.SetDeadline(time.Time{})
	}
	if err := c.enc.Encode(req); err != nil {
		return nil, err
	}
	for {
		var resp Response
		if err := c.dec.Decode(&resp); err != nil {
			return nil, err
		}
		switch {
		case resp.ID == req.ID:
			return &resp, nil
		case resp.ID == 0 && !resp.OK:
			// Connection-level error (frame limit, conn cap, malformed
			// frame): surface it; the caller reconnects and retries.
			return nil, fmt.Errorf("p4runtime: server error: %s", resp.Error)
		case resp.ID < req.ID:
			continue // stale response from an earlier request; skip
		default:
			return nil, fmt.Errorf("p4runtime: response id %d for request %d", resp.ID, req.ID)
		}
	}
}

// Insert adds a table entry; a *RejectionError-shaped error means the
// shim refused it.
func (c *Client) Insert(table string, e *dataplane.Entry) error {
	resp, err := c.roundTrip(&Request{Type: "insert", Table: table, Entry: EncodeEntry(e)})
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
	resp, err := c.roundTrip(&Request{Type: "validate", Table: table, Entry: EncodeEntry(e)})
	if err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("%s", resp.Error)
	}
	return nil
}

// SetDefault changes a table's default action.
func (c *Client) SetDefault(table, action string, params []*big.Int) error {
	e := &dataplane.Entry{Action: action, Params: params}
	resp, err := c.roundTrip(&Request{Type: "set_default", Table: table, Entry: EncodeEntry(e)})
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
	msgs := make([]UpdateMsg, 0, len(ops))
	for _, op := range ops {
		um := UpdateMsg{Table: op.Table}
		switch {
		case op.Entry != nil:
			um.Op = "insert"
			um.Entry = EncodeEntry(op.Entry)
		case op.Default != nil:
			um.Op = "set_default"
			um.Entry = EncodeEntry(&dataplane.Entry{Action: op.Default.Action, Params: op.Default.Params})
		default:
			return fmt.Errorf("p4runtime: batch op for table %s has neither entry nor default", op.Table)
		}
		msgs = append(msgs, um)
	}
	resp, err := c.roundTrip(&Request{Type: "batch", Update: msgs})
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
	msg := map[string]string{}
	for k, v := range fields {
		msg[k] = fmt.Sprintf("%d", v)
	}
	resp, err := c.roundTrip(&Request{Type: "packet", Packet: msg})
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
	resp, err := c.roundTrip(&Request{Type: "health"})
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
	resp, err := c.roundTrip(&Request{Type: "stats"})
	if err != nil {
		return 0, 0, err
	}
	if !resp.OK {
		return 0, 0, fmt.Errorf("%s", resp.Error)
	}
	return resp.Validated, resp.Rejected, nil
}
