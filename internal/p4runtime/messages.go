package p4runtime

import (
	"fmt"
	"math/big"

	"bf4/internal/dataplane"
	"bf4/internal/smt"
)

// This file is the JSON message model of table entries and requests:
// decimal-string values in struct-tagged messages. No connection carries
// it (the wire is binary, wire.go). It stays for the files that are JSON —
// cmd/p4sim's snapshot files name entries as EntryMsg — and for bench/'s
// codec ablation, which times the JSON encoding of a request.

// MaxValueBits bounds wire integers; anything wider is rejected before
// it can reach the bitvector layer. It is the width bound smt.Parse holds
// spec-file conditions to.
const MaxValueBits = smt.MaxWidth

// KeyMatchMsg is the JSON form of a key match. Values are decimal
// strings (bitvector widths exceed int64).
type KeyMatchMsg struct {
	Value     string `json:"value"`
	Mask      string `json:"mask,omitempty"`
	PrefixLen *int   `json:"prefix_len,omitempty"`
}

// EntryMsg is the JSON form of a table entry.
type EntryMsg struct {
	Keys     []KeyMatchMsg `json:"keys"`
	Action   string        `json:"action"`
	Params   []string      `json:"params,omitempty"`
	Priority int           `json:"priority,omitempty"`
}

// UpdateMsg is the JSON form of one element of an atomic batch.
type UpdateMsg struct {
	// Op is "insert" or "set_default".
	Op    string    `json:"op"`
	Table string    `json:"table"`
	Entry *EntryMsg `json:"entry"`
}

// Request is the JSON form of one controller→shim message. Its header —
// ID, Client, Switch, Type — is a request frame's header on the wire.
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

// ParseValue parses a message integer (decimal, 0x…, 0b…), rejecting
// negative or absurdly wide values with a clear error.
func ParseValue(s string) (*big.Int, error) { return parseBig(s) }

// parseValue is ParseValue into a table entry's value.
func parseValue(s string) (dataplane.Value, error) {
	v, err := parseBig(s)
	if err != nil {
		return dataplane.Value{}, err
	}
	return dataplane.FromBig(v)
}

// DecodeEntry converts a JSON entry to a dataplane entry. A ternary mask
// of "-1" is the dataplane's full-mask sentinel, the one negative number a
// message may hold.
func DecodeEntry(m *EntryMsg) (*dataplane.Entry, error) {
	e := &dataplane.Entry{Action: m.Action, Priority: m.Priority}
	for _, km := range m.Keys {
		v, err := parseValue(km.Value)
		if err != nil {
			return nil, err
		}
		dk := dataplane.KeyMatch{Value: v, PrefixLen: -1}
		switch km.Mask {
		case "":
		case "-1":
			dk.MaskKind = dataplane.FullMask
		default:
			if dk.Mask, err = parseValue(km.Mask); err != nil {
				return nil, err
			}
			dk.MaskKind = dataplane.MaskBits
		}
		if km.PrefixLen != nil {
			dk.PrefixLen = *km.PrefixLen
		}
		e.Keys = append(e.Keys, dk)
	}
	for _, p := range m.Params {
		v, err := parseValue(p)
		if err != nil {
			return nil, err
		}
		e.Params = append(e.Params, v)
	}
	return e, nil
}

// EncodeEntry converts a dataplane entry to its JSON form.
func EncodeEntry(e *dataplane.Entry) *EntryMsg {
	m := &EntryMsg{Action: e.Action, Priority: e.Priority}
	for _, k := range e.Keys {
		km := KeyMatchMsg{Value: k.Value.String()}
		switch k.MaskKind {
		case dataplane.MaskBits:
			km.Mask = k.Mask.String()
		case dataplane.FullMask:
			km.Mask = "-1"
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
