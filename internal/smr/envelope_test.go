package smr

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"
)

// TestCoalescerFlattensCallerEnvelopes: envelopes a caller built itself,
// submitted concurrently with single operations, coalesce into one flat
// envelope — each caller's sub-operations adjacent and in order, none nested
// — and every submitter gets its own replies back.
func TestCoalescerFlattensCallerEnvelopes(t *testing.T) {
	app := NewBatchApplication(&logApp{})
	inv := &countingInvoker{inner: func(ctx context.Context, op []byte) ([]byte, error) {
		return app.Execute(op), nil
	}}
	co := NewCoalescer(inv)
	co.MaxDelay = 20 * time.Millisecond

	const submitters, perEnvelope = 16, 3
	// seq parses the execution sequence number off a logApp reply "N:cmd"
	// and checks the reply answers cmd.
	seq := func(reply []byte, cmd string) (int, error) {
		n, rest, ok := bytes.Cut(reply, []byte(":"))
		if !ok || string(rest) != cmd {
			return 0, fmt.Errorf("reply %q does not answer %q", reply, cmd)
		}
		return strconv.Atoi(string(n))
	}
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				cmd := fmt.Sprintf("single%02d", i)
				reply, err := co.Invoke(bg, []byte(cmd))
				if err != nil {
					t.Errorf("single %d: %v", i, err)
				} else if _, err := seq(reply, cmd); err != nil {
					t.Errorf("single %d: %v", i, err)
				}
				return
			}
			ops := make([][]byte, perEnvelope)
			for j := range ops {
				ops[j] = []byte(fmt.Sprintf("env%02d.%d", i, j))
			}
			replies, err := InvokeBatch(bg, co, ops)
			if err != nil {
				t.Errorf("envelope %d: %v", i, err)
				return
			}
			first := 0
			for j, reply := range replies {
				n, err := seq(reply, string(ops[j]))
				if err != nil {
					t.Errorf("envelope %d: %v", i, err)
					return
				}
				if j == 0 {
					first = n
				} else if n != first+j {
					t.Errorf("envelope %d: sub-op %d executed at %d, want %d (adjacent to and after sub-op 0 at %d)", i, j, n, first+j, first)
				}
			}
		}(i)
	}
	wg.Wait()
	if rt := inv.n.Load(); rt >= submitters {
		t.Errorf("%d submitters used %d round trips; nothing coalesced", submitters, rt)
	}

	// A lone envelope goes out as it came in.
	before := inv.n.Load()
	replies, err := InvokeBatch(bg, co, [][]byte{[]byte("x"), []byte("y")})
	if err != nil || len(replies) != 2 {
		t.Fatalf("lone envelope: %q, %v", replies, err)
	}
	if _, err := seq(replies[1], "y"); err != nil {
		t.Fatal(err)
	}
	if rt := inv.n.Load() - before; rt != 1 {
		t.Fatalf("lone envelope used %d round trips, want 1", rt)
	}

	if _, err := co.Invoke(bg, EncodeBatch(nil)); err == nil {
		t.Fatal("empty envelope accepted")
	}
	if _, err := co.Invoke(bg, append(append([]byte{}, batchMagic...), 0xFF)); err == nil {
		t.Fatal("malformed envelope accepted")
	}
}

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
