package depsky

import (
	"bytes"
	"errors"
	"testing"
)

// frameOf encodes b the way encodeChunk does, into a buffer of the exact
// frame length.
func frameOf(p Protocol, b *block) []byte {
	payload := b.Shard
	if p == ProtocolA {
		payload = b.Full
	}
	frame := make([]byte, frameLen(len(b.KeyShare), len(payload)))
	encodeFrame(frame, p, b)
	return frame
}

func TestWireRoundTripCA(t *testing.T) {
	in := &block{
		Shard:         []byte{0, 1, 2, 0xff, 4, 5},
		ShardIdx:      2,
		KeyX:          9,
		KeyShare:      []byte{1, 2, 3, 4},
		ChunkIdx:      41,
		ChunkPlainLen: 777,
	}
	frame := frameOf(ProtocolCA, in)
	if want := wireHeaderLen + len(in.KeyShare) + len(in.Shard); len(frame) != want {
		t.Fatalf("frame size = %d, want %d (no inflation)", len(frame), want)
	}
	out, err := decodeBlock(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Shard, in.Shard) || out.ShardIdx != in.ShardIdx ||
		out.KeyX != in.KeyX || !bytes.Equal(out.KeyShare, in.KeyShare) ||
		out.ChunkIdx != in.ChunkIdx || out.ChunkPlainLen != in.ChunkPlainLen || out.Full != nil {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

// DepSky-A chunk: full replicated chunk, no key share.
func TestWireRoundTripA(t *testing.T) {
	in := &block{Full: []byte("chunk bytes"), ShardIdx: 1, ChunkIdx: 0, ChunkPlainLen: 11}
	out, err := decodeBlock(frameOf(ProtocolA, in))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Full, in.Full) || out.ShardIdx != 1 || out.ChunkIdx != 0 || out.ChunkPlainLen != 11 ||
		out.Shard != nil || out.KeyShare != nil {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

func TestWireRoundTripEmptyPayload(t *testing.T) {
	out, err := decodeBlock(frameOf(ProtocolCA, &block{ShardIdx: 1, KeyX: 1, KeyShare: []byte{5}}))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Shard) != 0 || out.KeyX != 1 {
		t.Fatalf("empty payload mishandled: %+v", out)
	}
}

// v1Frame is what this package's whole-object layout once stored: frame
// version 1, an 18-byte header without the chunk coordinates, here with a
// one-byte key share and an eight-byte shard. No writer produces it any
// more; to a reader it is malformed input.
func v1Frame() []byte {
	return []byte{'D', 'S', 'K', 'B', 1, byte(ProtocolCA), wireFlagKeyShare, 1,
		0, 0, 0, 0, 0, 1, 0, 0, 0, 8,
		4, 1, 2, 3, 4, 5, 6, 7, 8}
}

func TestWireRejectsMalformedFrames(t *testing.T) {
	good := frameOf(ProtocolCA, &block{Shard: []byte{1, 2, 3}, KeyX: 1, KeyShare: []byte{4}, ChunkIdx: 0, ChunkPlainLen: 3})
	cases := map[string][]byte{
		"empty":           nil,
		"short header":    good[:wireHeaderLen-1],
		"bad magic":       append([]byte("XXXX"), good[4:]...),
		"bad version":     append(append([]byte{}, good[:4]...), append([]byte{99}, good[5:]...)...),
		"version 1":       v1Frame(),
		"bad protocol":    append(append([]byte{}, good[:5]...), append([]byte{42}, good[6:]...)...),
		"truncated body":  good[:len(good)-1],
		"oversized frame": append(append([]byte{}, good...), 0),
		// JSON from the oldest envelope must be rejected cleanly, not
		// misparsed.
		"legacy JSON": []byte(`{"shard":"AAEC","shard_idx":1}`),
	}
	for name, frame := range cases {
		if _, err := decodeBlock(frame); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", name, err)
		}
	}
}

// FuzzDecodeBlock feeds arbitrary bytes — what a faulty cloud may answer a
// chunk GET with — to the frame decoder: it must reject or return a block
// whose fields lie inside the input and re-encode to it, never panic.
func FuzzDecodeBlock(f *testing.F) {
	f.Add(frameOf(ProtocolCA, &block{Shard: []byte{1, 2, 3}, ShardIdx: 3, KeyX: 1, KeyShare: []byte{4}, ChunkIdx: 2, ChunkPlainLen: 3}))
	f.Add(frameOf(ProtocolA, &block{Full: []byte("chunk"), ShardIdx: 1, ChunkPlainLen: 5}))
	f.Add(v1Frame())
	f.Add([]byte("DSKB\x02\x00\x01\x01\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := decodeBlock(data)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("err = %v, want ErrBadFrame", err)
			}
			return
		}
		p, payload := ProtocolCA, b.Shard
		if b.Full != nil {
			p, payload = ProtocolA, b.Full
		}
		if len(b.KeyShare)+len(payload) > len(data)-wireHeaderLen {
			t.Fatalf("decoded %d+%d bytes out of a %d-byte frame", len(b.KeyShare), len(payload), len(data))
		}
		// A frame the encoder can have produced decodes to what it encoded.
		if data[6] == wireFlagKeyShare && len(b.KeyShare) > 0 && !bytes.Equal(frameOf(p, b), data) {
			t.Fatal("re-encoding differs from the frame decoded")
		}
	})
}
