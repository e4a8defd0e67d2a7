// Package codec is the one wire format of every byte SCFS keeps outside an
// agent: what a coordination replica is sent or keeps (smr's batch envelope;
// DepSpace's commands, replies and snapshots) and what the clouds hand back
// (a file's metadata record, a private name space, and DepSky's descriptors,
// frames and register heads). Values are appended in order and read back by
// a Decoder, which accepts exactly one encoding of each value, so two copies
// of one state are the same bytes:
//   - a message that stands alone (an envelope, a snapshot, a record, an
//     object a cloud stores) begins with the version, Version;
//   - an integer is a uvarint with no padding byte (a signed one is cast); a
//     bool is 0 or 1;
//   - a string is its length, then its bytes; a list is its count, then its
//     items. A length or count is checked against the bytes that remain
//     before anything is allocated;
//   - nothing may follow the last value.
package codec

import (
	"encoding/binary"
	"errors"
)

// Version begins every message that stands alone.
const Version = 1

// MaxUvarintLen is the most bytes an integer takes, for sizing a buffer
// before appending to it.
const MaxUvarintLen = binary.MaxVarintLen64

// errMalformed reports bytes that are not the one encoding of a message.
var errMalformed = errors.New("codec: malformed message")

// AppendVersion begins a message that stands alone.
func AppendVersion(b []byte) []byte { return AppendUvarint(b, Version) }

// AppendUvarint appends v.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendBool appends v as 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return AppendUvarint(b, 1)
	}
	return AppendUvarint(b, 0)
}

// AppendString appends s, length first.
func AppendString(b []byte, s string) []byte { return append(AppendUvarint(b, uint64(len(s))), s...) }

// AppendBytes appends p, length first.
func AppendBytes(b, p []byte) []byte { return append(AppendUvarint(b, uint64(len(p))), p...) }

// AppendList appends items, count first, each with appendItem.
func AppendList[T any](b []byte, items []T, appendItem func([]byte, T) []byte) []byte {
	b = AppendUvarint(b, uint64(len(items)))
	for _, it := range items {
		b = appendItem(b, it)
	}
	return b
}

// AppendStrings appends ss, count first.
func AppendStrings(b []byte, ss []string) []byte { return AppendList(b, ss, AppendString) }

// Decoder reads a message's values back in the order they were appended.
// Its first failure sticks: later reads return zero values, and Finish
// reports it.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder reads b; a message that stands alone starts with its version.
func NewDecoder(b []byte, standalone bool) Decoder {
	d := Decoder{b: b}
	d.Want(!standalone || d.Uvarint() == Version)
	return d
}

// Want fails the decoder unless ok: a rule of the layout being read.
func (d *Decoder) Want(ok bool) {
	if !ok {
		d.b, d.err = nil, errMalformed
	}
}

// Uvarint reads an unsigned integer.
func (d *Decoder) Uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	// Truncated, overflowing, or ending in a zero byte that only pads it.
	d.Want(n > 0 && (n == 1 || d.b[n-1] != 0))
	if d.err != nil {
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Enum reads an unsigned integer of at most limit: one of an enumeration's
// values.
func (d *Decoder) Enum(limit uint64) uint64 {
	v := d.Uvarint()
	d.Want(v <= limit)
	return min(v, limit)
}

// Bool reads a bool.
func (d *Decoder) Bool() bool { return d.Enum(1) == 1 }

// count reads the length of a string or the count of a list. Each item takes
// a byte at least, so a count above the bytes that remain is forged; what
// count returns is safe to allocate. Every replica decodes the same ordered
// command, and every reader the same cloud object, so a forged count that
// crashed make() would stop them all.
func (d *Decoder) count() int {
	n := d.Uvarint()
	d.Want(n <= uint64(len(d.b)))
	return int(min(n, uint64(len(d.b))))
}

// Bytes reads a string as bytes that alias the message.
func (d *Decoder) Bytes() []byte {
	n := d.count()
	p := d.b[:n:n]
	d.b = d.b[n:]
	return p
}

// Str reads a string.
func (d *Decoder) Str() string { return string(d.Bytes()) }

// Strings reads a list of strings.
func (d *Decoder) Strings() []string { return List(d, (*Decoder).Str) }

// List reads a list, each item with readItem; an empty one reads as nil.
func List[T any](d *Decoder, readItem func(*Decoder) T) []T {
	var items []T
	if n := d.count(); n > 0 {
		items = make([]T, n)
	}
	for i := range items {
		items[i] = readItem(d)
	}
	return items
}

// Finish reports whether the message was read whole and well formed.
func (d *Decoder) Finish() error {
	d.Want(len(d.b) == 0)
	return d.err
}
