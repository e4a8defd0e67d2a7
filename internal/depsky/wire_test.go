package depsky

import (
	"bytes"
	"errors"
	"testing"

	"scfs/internal/codec"
)

// frameOf encodes b the way encodeChunk does.
func frameOf(b *block) []byte { return appendFrame(nil, b) }

func TestWireRoundTripCA(t *testing.T) {
	in := &block{
		Payload:       []byte{0, 1, 2, 0xff, 4, 5},
		ShardIdx:      2,
		KeyX:          9,
		KeyShare:      []byte{1, 2, 3, 4},
		ChunkIdx:      41,
		ChunkPlainLen: 777,
	}
	frame := frameOf(in)
	// The version, keyX, the shard and chunk indexes (one byte each), the
	// two-byte chunk length, then the key share and the payload, each behind
	// its one-byte length: nothing inflates the payload.
	if want := 4 + 2 + 1 + len(in.KeyShare) + 1 + len(in.Payload); len(frame) != want {
		t.Fatalf("frame size = %d, want %d", len(frame), want)
	}
	if len(frame) > maxFrameLen(in) {
		t.Fatalf("frame of %d bytes overflows its bound of %d", len(frame), maxFrameLen(in))
	}
	out, err := decodeBlock(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Payload, in.Payload) || out.ShardIdx != in.ShardIdx ||
		out.KeyX != in.KeyX || !bytes.Equal(out.KeyShare, in.KeyShare) ||
		out.ChunkIdx != in.ChunkIdx || out.ChunkPlainLen != in.ChunkPlainLen {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	// The payload aliases the frame: a read decodes in place.
	if &out.Payload[0] != &frame[len(frame)-len(in.Payload)] {
		t.Fatal("payload copied out of the frame")
	}
}

// DepSky-A chunk: full replicated chunk, no key share.
func TestWireRoundTripA(t *testing.T) {
	in := &block{Payload: []byte("chunk bytes"), ShardIdx: 1, ChunkIdx: 0, ChunkPlainLen: 11}
	out, err := decodeBlock(frameOf(in))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Payload, in.Payload) || out.ShardIdx != 1 || out.ChunkIdx != 0 || out.ChunkPlainLen != 11 ||
		len(out.KeyShare) != 0 || out.KeyX != 0 {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

func TestWireRoundTripEmptyPayload(t *testing.T) {
	out, err := decodeBlock(frameOf(&block{ShardIdx: 1, KeyX: 1, KeyShare: []byte{5}}))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Payload) != 0 || out.KeyX != 1 {
		t.Fatalf("empty payload mishandled: %+v", out)
	}
}

// otherVersionFrame is a well-formed frame in every field but its first,
// the codec version: what a writer of another version of the layout would
// store, here with a one-byte key share and an eight-byte shard. To this
// reader it is malformed input.
func otherVersionFrame() []byte {
	b := frameOf(&block{KeyX: 1, KeyShare: []byte{4}, Payload: []byte{1, 2, 3, 4, 5, 6, 7, 8}, ChunkIdx: 1, ChunkPlainLen: 2})
	b[0] = codec.Version + 1
	return b
}

// malformedFrames are the frames FuzzDecodeBlock is seeded with beside
// well-formed ones, one for each bound the decoder keeps: each decodes only
// if that bound is gone.
func malformedFrames() map[string][]byte {
	good := frameOf(&block{Payload: []byte{1, 2, 3}, KeyX: 1, KeyShare: []byte{4}, ChunkIdx: 0, ChunkPlainLen: 3})
	header := []byte{codec.Version, 1, 0, 0, 3}
	return map[string][]byte{
		"empty":           nil,
		"other version":   otherVersionFrame(),
		"keyX past 255":   append([]byte{codec.Version, 0x80, 0x02, 0, 0, 3, 1, 4}, 3, 1, 2, 3),
		"padded varint":   append([]byte{codec.Version, 0x81, 0x00, 0, 0, 3, 1, 4}, 3, 1, 2, 3),
		"overlong key":    append(codec.AppendUvarint(bytes.Clone(header), 1<<60), 4, 3, 1, 2, 3),
		"overlong shard":  append(bytes.Clone(header), 1, 4, 9, 1, 2, 3),
		"truncated body":  good[:len(good)-1],
		"trailing byte":   append(bytes.Clone(good), 0),
		"legacy magic":    append([]byte("DSKB\x02\x00\x01\x01"), good[1:]...),
		"overflow varint": {codec.Version, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F},
	}
}

func TestWireRejectsMalformedFrames(t *testing.T) {
	for name, frame := range malformedFrames() {
		if _, err := decodeBlock(frame); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", name, err)
		}
	}
}

// FuzzDecodeBlock feeds arbitrary bytes — what a faulty cloud may answer a
// chunk GET with — to the frame decoder: it must reject or return a block
// whose fields lie inside the input, and whatever it accepts re-encodes to
// the very bytes it was given.
func FuzzDecodeBlock(f *testing.F) {
	f.Add(frameOf(&block{Payload: []byte{1, 2, 3}, ShardIdx: 3, KeyX: 1, KeyShare: []byte{4}, ChunkIdx: 2, ChunkPlainLen: 3}))
	f.Add(frameOf(&block{Payload: []byte("chunk"), ShardIdx: 1, ChunkPlainLen: 5}))
	f.Add(frameOf(&block{KeyX: 0xFF, ShardIdx: 1 << 20, ChunkIdx: 1 << 40, ChunkPlainLen: MaxChunkSize}))
	for _, frame := range malformedFrames() {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := decodeBlock(data)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("err = %v, want ErrBadFrame", err)
			}
			return
		}
		if len(b.KeyShare)+len(b.Payload) > len(data) {
			t.Fatalf("decoded %d+%d bytes out of a %d-byte frame", len(b.KeyShare), len(b.Payload), len(data))
		}
		if again := frameOf(b); !bytes.Equal(again, data) {
			t.Fatalf("%x decoded to a block that re-encodes as %x", data, again)
		}
	})
}
