package smr

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The coordination codec: the one binary format of everything a replica is
// sent or keeps — a batch envelope and its reply (below), and each DepSpace
// command, reply and snapshot, which depspace appends with these helpers.
// Values are appended in order and read back by a Decoder, which accepts
// exactly one encoding of each value, so two replicas in the same state hold
// the same bytes:
//   - a message that stands alone (an envelope, a snapshot) begins with the
//     version, codecVersion;
//   - an integer is a uvarint with no padding byte (a signed one is cast);
//   - a string is its length, then its bytes; a list is its count, then its
//     items. A length or count is checked against the bytes that remain
//     before anything is allocated;
//   - nothing may follow the last value.

const codecVersion = 1

// errMalformed reports bytes that are not the one encoding of a message.
var errMalformed = errors.New("smr: malformed message")

// AppendVersion begins a message that stands alone.
func AppendVersion(b []byte) []byte { return AppendUvarint(b, codecVersion) }

// AppendUvarint appends v.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendString appends s, length first.
func AppendString(b []byte, s string) []byte { return append(AppendUvarint(b, uint64(len(s))), s...) }

// appendBytes appends p, length first.
func appendBytes(b, p []byte) []byte { return append(AppendUvarint(b, uint64(len(p))), p...) }

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
	d.Want(!standalone || d.Uvarint() == codecVersion)
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

// count reads the length of a string or the count of a list. Each item takes
// a byte at least, so a count above the bytes that remain is forged; what
// count returns is safe to allocate. Every replica decodes the same ordered
// command, so a forged count that crashed make() would stop them all.
func (d *Decoder) count() int {
	n := d.Uvarint()
	d.Want(n <= uint64(len(d.b)))
	return int(min(n, uint64(len(d.b))))
}

// bytes reads a string as bytes that alias the message.
func (d *Decoder) bytes() []byte {
	n := d.count()
	p := d.b[:n:n]
	d.b = d.b[n:]
	return p
}

// Str reads a string.
func (d *Decoder) Str() string { return string(d.bytes()) }

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

// EncodeBatch frames ops as one envelope: the version, the count of ops, then
// each op as a string. Every coordination invocation is an envelope.
func EncodeBatch(ops [][]byte) []byte {
	size := 2 * binary.MaxVarintLen64
	for _, op := range ops {
		size += binary.MaxVarintLen64 + len(op)
	}
	return AppendList(AppendVersion(make([]byte, 0, size)), ops, appendBytes)
}

// DecodeBatch unpacks an envelope made by EncodeBatch. The ops alias b.
func DecodeBatch(b []byte) ([][]byte, error) {
	d := NewDecoder(b, true)
	ops := List(&d, (*Decoder).bytes)
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return ops, nil
}

// DecodeBatchReply unpacks the reply to an envelope of n operations. Reply
// bytes come from replicas and are untrusted: anything but the envelope of
// exactly n replies is an error, so callers may index the result by
// operation position.
func DecodeBatchReply(reply []byte, n int) ([][]byte, error) {
	replies, err := DecodeBatch(reply)
	if err != nil || len(replies) != n {
		return nil, fmt.Errorf("smr: malformed batch reply (%d ops, %d replies; replicas must wrap their application in BatchApplication)", n, len(replies))
	}
	return replies, nil
}
