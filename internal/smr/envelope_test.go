package smr

import (
	"bytes"
	"context"
	"testing"

	"scfs/internal/codec"
)

// TestInvokeBatchRejectsBadReplies: the reply to an envelope is replica
// bytes; anything but exactly one reply per operation is an error.
func TestInvokeBatchRejectsBadReplies(t *testing.T) {
	ops := [][]byte{[]byte("a"), []byte("b")}
	for name, reply := range map[string][]byte{
		"plain":     []byte("ok"),
		"empty":     nil,
		"short":     EncodeBatch([][]byte{[]byte("only one")}),
		"long":      EncodeBatch([][]byte{[]byte("1"), []byte("2"), []byte("3")}),
		"truncated": EncodeBatch(ops)[:5],
		"trailing":  append(EncodeBatch(ops), 0),
	} {
		inv := &countingInvoker{inner: func(context.Context, []byte) ([]byte, error) { return reply, nil }}
		if got, err := InvokeBatch(bg, inv, ops); err == nil {
			t.Errorf("%s reply accepted as %q", name, got)
		}
	}
}

// Malformed envelopes the fuzz targets are seeded with, one for each bound
// the decoder keeps: each decodes only if that bound is gone.
var malformedEnvelopes = map[string][]byte{
	"overlong-count":  append(codec.AppendUvarint(codec.AppendVersion(nil), 1<<60), 1, 'x'),
	"overlong-length": append(codec.AppendUvarint(codec.AppendVersion(nil), 1), 200, 1, 'x'),
	"padded-varint":   {codec.Version, 0x81, 0x00, 1, 'x'},
	"overflow-varint": {codec.Version, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F},
	"trailing-byte":   append(EncodeBatch([][]byte{[]byte("x")}), 0),
	"other-version":   {codec.Version + 1, 1, 1, 'x'},
	"plain":           []byte("plain"),
}

// FuzzDecodeBatch: an envelope reaches every replica from any client. The
// decoder accepts only the one encoding of a list of operations: whatever
// it accepts re-encodes to the same bytes.
func FuzzDecodeBatch(f *testing.F) {
	f.Add(EncodeBatch([][]byte{[]byte("rdp"), nil, []byte("x")}))
	f.Add(EncodeBatch(nil))
	for _, b := range malformedEnvelopes {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		ops, err := DecodeBatch(b)
		if err != nil {
			if ops != nil {
				t.Fatal("ops returned with an error")
			}
			return
		}
		if again := EncodeBatch(ops); !bytes.Equal(again, b) {
			t.Fatalf("%x decoded to %d ops that re-encode as %x", b, len(ops), again)
		}
	})
}

// FuzzDecodeBatchReply: a reply comes from a replica. It is accepted only as
// the one encoding of exactly one reply per operation.
func FuzzDecodeBatchReply(f *testing.F) {
	f.Add(EncodeBatch([][]byte{[]byte("ok"), []byte("no")}), 2)
	f.Add(EncodeBatch([][]byte{[]byte("one")}), 2)
	f.Add(EncodeBatch(nil), 0)
	for _, b := range malformedEnvelopes {
		f.Add(b, 1)
	}
	f.Fuzz(func(t *testing.T, reply []byte, n int) {
		replies, err := DecodeBatchReply(reply, n)
		if err != nil {
			if replies != nil {
				t.Fatal("replies returned with an error")
			}
			return
		}
		// The caller indexes replies by operation position.
		if len(replies) != n {
			t.Fatalf("%d replies accepted for %d operations", len(replies), n)
		}
		if again := EncodeBatch(replies); !bytes.Equal(again, reply) {
			t.Fatalf("%x accepted as replies that re-encode as %x", reply, again)
		}
	})
}
