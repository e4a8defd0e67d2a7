package smr

import (
	"bytes"
	"context"
	"testing"
)

// TestInvokeBatchRejectsBadReplies: the reply to an envelope is replica
// bytes; anything but exactly one reply per operation is an error.
func TestInvokeBatchRejectsBadReplies(t *testing.T) {
	ops := [][]byte{[]byte("a"), []byte("b")}
	for name, reply := range map[string][]byte{
		"plain":     []byte(`{"ok":true}`),
		"empty":     nil,
		"short":     EncodeBatch([][]byte{[]byte("only one")}),
		"long":      EncodeBatch([][]byte{[]byte("1"), []byte("2"), []byte("3")}),
		"truncated": EncodeBatch(ops)[:6],
	} {
		inv := &countingInvoker{inner: func(context.Context, []byte) ([]byte, error) { return reply, nil }}
		if got, err := InvokeBatch(bg, inv, ops); err == nil {
			t.Errorf("%s reply accepted as %q", name, got)
		}
	}
}

func FuzzDecodeBatch(f *testing.F) {
	f.Add(EncodeBatch([][]byte{[]byte(`{"op":"rdp"}`), nil, []byte("x")}))
	f.Add(EncodeBatch(nil))
	f.Add([]byte(`{"op":"plain"}`))
	f.Add(append(append([]byte{}, batchMagic...), 0xFF, 0xFF, 0xFF, 0xFF, 0x0F))
	f.Add(append(append([]byte{}, batchMagic...), 2, 200, 1))
	f.Fuzz(func(t *testing.T, b []byte) {
		ops, isBatch := DecodeBatch(b)
		if !isBatch {
			if ops != nil {
				t.Fatalf("plain command decoded to %d ops", len(ops))
			}
			return
		}
		if ops == nil {
			return // malformed
		}
		total := 0
		for _, op := range ops {
			total += len(op)
		}
		if total > len(b) {
			t.Fatalf("%d payload bytes decoded from %d", total, len(b))
		}
		again, ok := DecodeBatch(EncodeBatch(ops))
		if !ok || len(again) != len(ops) {
			t.Fatalf("re-encoded envelope decodes to %d ops, want %d", len(again), len(ops))
		}
		for i := range ops {
			if !bytes.Equal(again[i], ops[i]) {
				t.Fatalf("op %d changed across a re-encode", i)
			}
		}
	})
}

func FuzzDecodeBatchReply(f *testing.F) {
	f.Add(EncodeBatch([][]byte{[]byte(`{"ok":true}`), []byte(`{"ok":false}`)}), 2)
	f.Add(EncodeBatch([][]byte{[]byte("one")}), 2)
	f.Add(EncodeBatch(nil), 0)
	f.Add([]byte(`{"ok":true}`), 1)
	f.Add(append(append([]byte{}, batchMagic...), 0xFF, 0xFF, 0xFF, 0xFF, 0x0F), 3)
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
	})
}
