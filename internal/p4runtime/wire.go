package p4runtime

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"sort"

	"bf4/internal/dataplane"
	"bf4/internal/shim"
)

// The wire. Each side of a connection opens with the preface, then sends
// frames: a uvarint payload length, then the payload, in the encoding of
// shim/codec.go (the journal's). A request payload is
//
//	varint   id
//	string   client, switch, type
//	uvarint  write count, then each write: one shim update record
//	         (Encoder.Update) carrying exactly one op, an entry or a default
//	uvarint  packet field count, then each field: string name, integer value
//
// and a response payload is
//
//	varint   id
//	uvarint  flags (resp*)
//	string   error
//	varint   failed index (respFailedIndex only)
//	varint   egress spec (respEgressSpec only)
//	string   bug kind
//	uvarint  validated, rejected
//	uvarint  shard count, then each shard: string id, string state (by id)

// preface opens each direction of a connection: the protocol and its
// version. It ends in a newline so that a server still reading
// newline-delimited JSON answers it at once rather than waiting for more.
const preface = "BF4RT/1\n"

const (
	respOK = 1 << iota
	respRetryable
	respBug
	respFailedIndex
	respEgressSpec
)

// maxResponseBytes caps one response frame a client reads.
const maxResponseBytes = 16 << 20

var (
	errFrameTooLarge = errors.New("p4runtime: frame exceeds size limit")
	errPreface       = fmt.Errorf("p4runtime: connection does not open with the %q preface", preface)
)

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

// wireRequest is a request as its frame carries it: Request's header,
// its writes as shim updates and its packet's fields as integers.
type wireRequest struct {
	ID     int64
	Client string
	Switch string
	Type   string
	Writes []*shim.Update
	Packet dataplane.Packet
}

// encodeRequest appends req's payload to e.Buf; a value the encoding cannot
// hold sets e.Err.
func encodeRequest(e *shim.Encoder, req *wireRequest) {
	e.Varint(req.ID)
	e.Str(req.Client)
	e.Str(req.Switch)
	e.Str(req.Type)
	e.Uvarint(uint64(len(req.Writes)))
	for _, u := range req.Writes {
		e.Update(u)
	}
	e.Uvarint(uint64(len(req.Packet)))
	for _, name := range sortedKeys(req.Packet) {
		e.Str(name)
		v, err := dataplane.FromBig(req.Packet[name])
		if err != nil && e.Err == nil {
			e.Err = err
		}
		e.Int(v)
	}
}

// decodeRequest reads a request payload. The request it returns always
// carries the ID when the header could be read, also beside an error.
func decodeRequest(payload []byte) (*wireRequest, error) {
	d := shim.Decoder{Buf: payload}
	req := &wireRequest{ID: d.Varint(), Client: d.Str(), Switch: d.Str(), Type: d.Str()}
	if d.Err != nil {
		return &wireRequest{}, d.Err
	}
	if n := d.Count(); n > 0 {
		req.Writes = make([]*shim.Update, n)
		for i := range req.Writes {
			req.Writes[i] = d.Update()
		}
	}
	for n := d.Count(); n > 0; n-- {
		if req.Packet == nil {
			req.Packet = dataplane.Packet{}
		}
		name := d.Str()
		req.Packet[name] = d.Int().Big()
	}
	if err := d.Finish(); err != nil {
		return req, err
	}
	for i, u := range req.Writes {
		switch {
		case u.Entry == nil && u.SetDefault == nil:
			return req, fmt.Errorf("write %d carries no op", i)
		case u.Entry != nil && u.SetDefault != nil:
			return req, fmt.Errorf("write %d carries two ops", i)
		}
	}
	return req, nil
}

// encodeResponse appends resp's payload to e.Buf.
func encodeResponse(e *shim.Encoder, resp *Response) {
	e.Varint(resp.ID)
	var flags uint64
	if resp.OK {
		flags |= respOK
	}
	if resp.Retryable {
		flags |= respRetryable
	}
	if resp.Bug {
		flags |= respBug
	}
	if resp.FailedIndex != nil {
		flags |= respFailedIndex
	}
	if resp.EgressSpec != nil {
		flags |= respEgressSpec
	}
	e.Uvarint(flags)
	e.Str(resp.Error)
	if resp.FailedIndex != nil {
		e.Varint(int64(*resp.FailedIndex))
	}
	if resp.EgressSpec != nil {
		e.Varint(*resp.EgressSpec)
	}
	e.Str(resp.BugKind)
	e.Uvarint(uint64(resp.Validated))
	e.Uvarint(uint64(resp.Rejected))
	e.Uvarint(uint64(len(resp.Shards)))
	for _, id := range sortedKeys(resp.Shards) {
		e.Str(id)
		e.Str(resp.Shards[id])
	}
}

// decodeResponse reads a response payload.
func decodeResponse(payload []byte) (*Response, error) {
	d := shim.Decoder{Buf: payload}
	resp := &Response{ID: d.Varint()}
	flags := d.Uvarint()
	resp.OK, resp.Retryable, resp.Bug = flags&respOK != 0, flags&respRetryable != 0, flags&respBug != 0
	resp.Error = d.Str()
	if flags&respFailedIndex != 0 {
		idx := int(d.Varint())
		resp.FailedIndex = &idx
	}
	if flags&respEgressSpec != 0 {
		spec := d.Varint()
		resp.EgressSpec = &spec
	}
	resp.BugKind = d.Str()
	resp.Validated, resp.Rejected = int(d.Uvarint()), int(d.Uvarint())
	for n := d.Count(); n > 0; n-- {
		if resp.Shards == nil {
			resp.Shards = map[string]string{}
		}
		id := d.Str()
		resp.Shards[id] = d.Str()
	}
	return resp, d.Finish()
}

// appendResponse appends resp's frame to dst, encoding it in enc.
func appendResponse(dst []byte, enc *shim.Encoder, resp *Response) []byte {
	enc.Buf = enc.Buf[:0]
	encodeResponse(enc, resp)
	return appendFrame(dst, enc.Buf)
}

// appendFrame appends a frame of payload to dst.
func appendFrame(dst, payload []byte) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(payload))), payload...)
}

// readFramePayload reads one frame into buf's array and returns its
// payload. A length above max — or written in more bytes than max needs —
// is errFrameTooLarge, refused before anything behind it is read or any
// room is made for it.
func readFramePayload(r *bufio.Reader, max int, buf []byte) ([]byte, error) {
	limit := (bits.Len64(uint64(max)) + 6) / 7
	var n uint64
	for i := 0; ; i++ {
		if i == limit {
			return nil, errFrameTooLarge
		}
		b, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		if n |= uint64(b&0x7f) << (7 * i); n > uint64(max) {
			return nil, errFrameTooLarge
		}
		if b < 0x80 {
			break
		}
	}
	buf = slices.Grow(buf[:0], int(n))[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// readPreface reads the peer's preface, failing at its first wrong byte.
func readPreface(r *bufio.Reader) error {
	for i := 0; i < len(preface); i++ {
		b, err := r.ReadByte()
		if err != nil {
			return err
		}
		if b != preface[i] {
			return errPreface
		}
	}
	return nil
}

// sortedKeys lists m's keys in order, so that a frame's bytes do not
// depend on map iteration.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
