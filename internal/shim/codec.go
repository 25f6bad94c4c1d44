package shim

import (
	"encoding/binary"
	"fmt"

	"bf4/internal/dataplane"
	"bf4/internal/smt"
)

// The shim's vocabulary has one binary encoding, used by the journal and
// the snapshot (persist.go) and by the p4runtime wire frames:
//
//	uvarint  counts, lengths, sequence numbers, prefix lengths
//	varint   zigzag-encoded signed integers (priorities)
//	string   uvarint length, bytes
//	integer  uvarint length, big-endian magnitude of at most smt.MaxWidth bits
//	key      flags, value, mask (keyMask only), prefix length (keyPrefix only)
//	entry    key count, keys, action, param count, params, priority (zigzag varint)
//	default  action, param count, params
//	update   table, flags, entry (opEntry only), default (opDefault only)
//
// Nothing depends on a key's declared width, so dataplane.Entry is stored
// as it is held, and an integer's bytes are its dataplane.Value's limbs in
// big-endian order, with no big.Int between them.

const (
	keyMask     = 1 << iota // a mask integer follows the value
	keyFullMask             // the mask is the dataplane's -1 "all ones at any width" sentinel; nothing follows
	keyPrefix               // a prefix length follows

	opEntry   = 1 << 0
	opDefault = 1 << 1
)

// Encoder appends encodings to Buf. What the format cannot hold — an
// integer wider than smt.MaxWidth, a mask kind dataplane does not define —
// sets Err, and Buf is then not to be used.
type Encoder struct {
	Buf []byte
	Err error
}

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) { e.Buf = binary.AppendUvarint(e.Buf, v) }

// Varint appends a zigzag-encoded signed varint.
func (e *Encoder) Varint(v int64) { e.Buf = binary.AppendVarint(e.Buf, v) }

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) {
	e.Uvarint(uint64(len(s)))
	e.Buf = append(e.Buf, s...)
}

// Int appends an integer of at most smt.MaxWidth bits.
func (e *Encoder) Int(v dataplane.Value) {
	n := v.BitLen()
	if n > smt.MaxWidth {
		e.Err = fmt.Errorf("integer of %d bits is wider than %d", n, smt.MaxWidth)
		return
	}
	e.Uvarint(uint64((n + 7) / 8))
	e.Buf = v.AppendBytes(e.Buf)
}

func (e *Encoder) ints(vs []dataplane.Value) {
	e.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		e.Int(v)
	}
}

// Entry appends one table entry.
func (e *Encoder) Entry(x *dataplane.Entry) {
	e.Uvarint(uint64(len(x.Keys)))
	for i := range x.Keys {
		k := &x.Keys[i]
		var flags uint64
		switch k.MaskKind {
		case dataplane.NoMask:
		case dataplane.MaskBits:
			flags = keyMask
		case dataplane.FullMask:
			flags = keyFullMask
		default:
			e.Err = fmt.Errorf("mask kind %d", k.MaskKind)
		}
		if k.PrefixLen >= 0 {
			flags |= keyPrefix
		}
		e.Uvarint(flags)
		e.Int(k.Value)
		if flags&keyMask != 0 {
			e.Int(k.Mask)
		}
		if flags&keyPrefix != 0 {
			if k.PrefixLen > smt.MaxWidth {
				e.Err = fmt.Errorf("prefix length %d exceeds %d bits", k.PrefixLen, smt.MaxWidth)
			}
			e.Uvarint(uint64(k.PrefixLen))
		}
	}
	e.Str(x.Action)
	e.ints(x.Params)
	e.Varint(int64(x.Priority))
}

// Default appends one runtime default action.
func (e *Encoder) Default(d *dataplane.DefaultAction) {
	e.Str(d.Action)
	e.ints(d.Params)
}

// Update appends one update op.
func (e *Encoder) Update(u *Update) {
	e.Str(u.Table)
	var flags uint64
	if u.Entry != nil {
		flags |= opEntry
	}
	if u.SetDefault != nil {
		flags |= opDefault
	}
	e.Uvarint(flags)
	if u.Entry != nil {
		e.Entry(u.Entry)
	}
	if u.SetDefault != nil {
		e.Default(u.SetDefault)
	}
}

// Decoder consumes encodings from the front of Buf. The first malformed
// field sets Err and empties Buf, after which every read returns a zero
// value, so a caller checks once, after the last read (Finish). The bytes
// are outside input: no read panics, and no allocation is sized by a
// number the bytes still to come could not back.
type Decoder struct {
	Buf []byte
	Err error
}

func (d *Decoder) fail(format string, args ...any) {
	if d.Err == nil {
		d.Err = fmt.Errorf(format, args...)
	}
	d.Buf = nil
}

// Finish returns the first malformed field's error, and one of its own
// if bytes are left unread.
func (d *Decoder) Finish() error {
	if d.Err == nil && len(d.Buf) != 0 {
		d.fail("%d bytes left over", len(d.Buf))
	}
	return d.Err
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	v, n := binary.Uvarint(d.Buf)
	if n <= 0 {
		d.fail("truncated or overlong varint")
		return 0
	}
	d.Buf = d.Buf[n:]
	return v
}

// Varint reads a zigzag-encoded signed varint.
func (d *Decoder) Varint() int64 {
	u := d.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Count reads a byte length or an element count; every element takes at
// least one byte, so either is refused when it exceeds what remains.
func (d *Decoder) Count() int {
	n := d.Uvarint()
	if n > uint64(len(d.Buf)) {
		d.fail("length %d exceeds the %d bytes that remain", n, len(d.Buf))
		return 0
	}
	return int(n)
}

func (d *Decoder) bytes() []byte {
	n := d.Count()
	b := d.Buf[:n]
	d.Buf = d.Buf[n:]
	return b
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string { return string(d.bytes()) }

// Int reads an integer of at most smt.MaxWidth bits.
func (d *Decoder) Int() dataplane.Value {
	b := d.bytes()
	if len(b) > smt.MaxWidth/8 {
		d.fail("integer of %d bytes is wider than %d bits", len(b), smt.MaxWidth)
		return dataplane.Value{}
	}
	return dataplane.FromBytes(b)
}

func (d *Decoder) ints() []dataplane.Value {
	n := d.Count()
	if n == 0 {
		return nil
	}
	vs := make([]dataplane.Value, n)
	for i := range vs {
		vs[i] = d.Int()
	}
	return vs
}

// Entry reads one table entry.
func (d *Decoder) Entry() *dataplane.Entry {
	x := &dataplane.Entry{}
	if n := d.Count(); n > 0 {
		x.Keys = make([]dataplane.KeyMatch, n)
	}
	for i := range x.Keys {
		k := &x.Keys[i]
		flags := d.Uvarint()
		if flags&^(keyMask|keyFullMask|keyPrefix) != 0 || flags&(keyMask|keyFullMask) == keyMask|keyFullMask {
			d.fail("key flags %#x", flags)
		}
		k.Value, k.PrefixLen = d.Int(), -1
		if flags&keyMask != 0 {
			k.Mask, k.MaskKind = d.Int(), dataplane.MaskBits
		}
		if flags&keyFullMask != 0 {
			k.MaskKind = dataplane.FullMask
		}
		if flags&keyPrefix != 0 {
			p := d.Uvarint()
			if p > smt.MaxWidth {
				d.fail("prefix length %d exceeds %d bits", p, smt.MaxWidth)
			}
			k.PrefixLen = int(p)
		}
	}
	x.Action = d.Str()
	x.Params = d.ints()
	x.Priority = int(d.Varint())
	return x
}

// Default reads one runtime default action.
func (d *Decoder) Default() *dataplane.DefaultAction {
	return &dataplane.DefaultAction{Action: d.Str(), Params: d.ints()}
}

// Update reads one update op.
func (d *Decoder) Update() *Update {
	u := &Update{Table: d.Str()}
	flags := d.Uvarint()
	if flags&^(opEntry|opDefault) != 0 {
		d.fail("update flags %#x", flags)
	}
	if flags&opEntry != 0 {
		u.Entry = d.Entry()
	}
	if flags&opDefault != 0 {
		u.SetDefault = d.Default()
	}
	return u
}
