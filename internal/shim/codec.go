package shim

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"math/bits"
	"slices"

	"bf4/internal/dataplane"
	"bf4/internal/smt"
)

// The shim's durable vocabulary has one binary encoding, used by the
// journal and the snapshot (persist.go) and exported for the wire:
//
//	uvarint  counts, lengths, sequence numbers, prefix lengths
//	string   uvarint length, bytes
//	integer  uvarint length, big-endian magnitude of at most smt.MaxWidth bits
//	key      flags, value, mask (keyMask only), prefix length (keyPrefix only)
//	entry    key count, keys, action, param count, params, priority (zigzag varint)
//	default  action, param count, params
//	update   table, flags, entry (opEntry only), default (opDefault only)
//
// Nothing depends on a key's declared width, so dataplane.Entry is stored
// as it is held.

const (
	keyMask     = 1 << iota // a mask integer follows the value
	keyFullMask             // the mask is the dataplane's -1 "all ones at any width" sentinel; nothing follows
	keyPrefix               // a prefix length follows

	opEntry   = 1 << 0
	opDefault = 1 << 1
)

var fullMask = big.NewInt(-1)

// Encoder appends encodings to Buf. An integer the format cannot hold —
// negative (other than the full-mask sentinel) or wider than smt.MaxWidth
// — sets Err, and Buf is then not to be used.
type Encoder struct {
	Buf []byte
	Err error
}

func (e *Encoder) uvarint(v uint64) { e.Buf = binary.AppendUvarint(e.Buf, v) }

func (e *Encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.Buf = append(e.Buf, s...)
}

func (e *Encoder) int(v *big.Int) {
	switch {
	case v.Sign() < 0:
		e.Err = fmt.Errorf("integer %s is negative", v)
	case v.IsUint64():
		// One machine word, as nearly every key and parameter is: the same
		// bytes without big.Int's general conversion, which is otherwise
		// half of a checkpoint's encoding time.
		x := v.Uint64()
		n := (bits.Len64(x) + 7) / 8
		e.Buf = append(e.Buf, byte(n))
		for s := 8 * (n - 1); s >= 0; s -= 8 {
			e.Buf = append(e.Buf, byte(x>>s))
		}
	case v.BitLen() > smt.MaxWidth:
		e.Err = fmt.Errorf("integer of %d bits is wider than %d", v.BitLen(), smt.MaxWidth)
	default:
		n := (v.BitLen() + 7) / 8
		e.uvarint(uint64(n))
		e.Buf = slices.Grow(e.Buf, n)[:len(e.Buf)+n]
		v.FillBytes(e.Buf[len(e.Buf)-n:])
	}
}

func (e *Encoder) ints(vs []*big.Int) {
	e.uvarint(uint64(len(vs)))
	for _, v := range vs {
		e.int(v)
	}
}

// Entry appends one table entry.
func (e *Encoder) Entry(x *dataplane.Entry) {
	e.uvarint(uint64(len(x.Keys)))
	for i := range x.Keys {
		k := &x.Keys[i]
		var flags uint64
		if k.Mask != nil {
			flags = keyMask
			if k.Mask.Cmp(fullMask) == 0 {
				flags = keyFullMask
			}
		}
		if k.PrefixLen >= 0 {
			flags |= keyPrefix
		}
		e.uvarint(flags)
		e.int(k.Value)
		if flags&keyMask != 0 {
			e.int(k.Mask)
		}
		if flags&keyPrefix != 0 {
			if k.PrefixLen > smt.MaxWidth {
				e.Err = fmt.Errorf("prefix length %d exceeds %d bits", k.PrefixLen, smt.MaxWidth)
			}
			e.uvarint(uint64(k.PrefixLen))
		}
	}
	e.str(x.Action)
	e.ints(x.Params)
	e.Buf = binary.AppendVarint(e.Buf, int64(x.Priority))
}

// Default appends one runtime default action.
func (e *Encoder) Default(d *dataplane.DefaultAction) {
	e.str(d.Action)
	e.ints(d.Params)
}

// Update appends one update op.
func (e *Encoder) Update(u *Update) {
	e.str(u.Table)
	var flags uint64
	if u.Entry != nil {
		flags |= opEntry
	}
	if u.SetDefault != nil {
		flags |= opDefault
	}
	e.uvarint(flags)
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

func (d *Decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.Buf)
	if n <= 0 {
		d.fail("truncated or overlong varint")
		return 0
	}
	d.Buf = d.Buf[n:]
	return v
}

// count reads a byte length or an element count; every element takes at
// least one byte, so either is refused when it exceeds what remains.
func (d *Decoder) count() int {
	n := d.uvarint()
	if n > uint64(len(d.Buf)) {
		d.fail("length %d exceeds the %d bytes that remain", n, len(d.Buf))
		return 0
	}
	return int(n)
}

func (d *Decoder) bytes() []byte {
	n := d.count()
	b := d.Buf[:n]
	d.Buf = d.Buf[n:]
	return b
}

func (d *Decoder) str() string { return string(d.bytes()) }

func (d *Decoder) int() *big.Int {
	b := d.bytes()
	if len(b) > smt.MaxWidth/8 {
		d.fail("integer of %d bytes is wider than %d bits", len(b), smt.MaxWidth)
		return nil
	}
	return new(big.Int).SetBytes(b)
}

func (d *Decoder) ints() []*big.Int {
	n := d.count()
	if n == 0 {
		return nil
	}
	vs := make([]*big.Int, n)
	for i := range vs {
		vs[i] = d.int()
	}
	return vs
}

// Entry reads one table entry.
func (d *Decoder) Entry() *dataplane.Entry {
	x := &dataplane.Entry{}
	if n := d.count(); n > 0 {
		x.Keys = make([]dataplane.KeyMatch, n)
	}
	for i := range x.Keys {
		k := &x.Keys[i]
		flags := d.uvarint()
		if flags&^(keyMask|keyFullMask|keyPrefix) != 0 || flags&(keyMask|keyFullMask) == keyMask|keyFullMask {
			d.fail("key flags %#x", flags)
		}
		k.Value, k.PrefixLen = d.int(), -1
		if flags&keyMask != 0 {
			k.Mask = d.int()
		}
		if flags&keyFullMask != 0 {
			k.Mask = big.NewInt(-1)
		}
		if flags&keyPrefix != 0 {
			p := d.uvarint()
			if p > smt.MaxWidth {
				d.fail("prefix length %d exceeds %d bits", p, smt.MaxWidth)
			}
			k.PrefixLen = int(p)
		}
	}
	x.Action = d.str()
	x.Params = d.ints()
	p := d.uvarint() // zigzag, as binary.AppendVarint writes it
	x.Priority = int(int64(p>>1) ^ -int64(p&1))
	return x
}

// Default reads one runtime default action.
func (d *Decoder) Default() *dataplane.DefaultAction {
	return &dataplane.DefaultAction{Action: d.str(), Params: d.ints()}
}

// Update reads one update op.
func (d *Decoder) Update() *Update {
	u := &Update{Table: d.str()}
	flags := d.uvarint()
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
