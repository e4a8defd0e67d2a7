package depsky

// What a cloud stores for a version, in the one codec (internal/codec):
//
//   - A frame is one cloud's share of one chunk, stored alone as
//     "dsky/<unit>/<hash>/<tag>/c<j>" (<hash> being the version's plaintext
//     SHA-256 and <tag> the writer's, VersionInfo.Tag) or, for a value of one
//     chunk, inside the descriptor object. It stands alone: the version, then
//     keyX (the key share's secret-share evaluation point, 0 without one),
//     the shard index, the chunk index, the chunk's plaintext length, the key
//     share and the payload — the erasure-coded shard of the chunk's
//     ciphertext under DepSky-CA, the whole chunk under DepSky-A. The
//     protocol is the descriptor's.
//   - A descriptor (VersionInfo) is its fields in declaration order.
//   - A descriptor object, "dsky/<unit>/<hash>/desc", is the version, the
//     descriptor as a string — the bytes readers compare across clouds —
//     then the cloud's frame as a string, empty unless the value is one
//     chunk. One PUT stores both and one GET returns both, so no cloud ever
//     holds one write's descriptor beside another write's frame.
//   - A register head is register.go's.
//
// The chunk geometry and the per-cloud frame hashes live in the descriptor,
// not in the frames; integrity is not the frame's job either: a reader checks
// each frame's SHA-256 against the descriptor before decoding it. Every frame
// carries the version's key share, so a ranged read of any single chunk
// recovers the key from f+1 clouds without extra round trips.

import (
	"errors"
	"fmt"

	"scfs/internal/codec"
	"scfs/internal/stream"
)

// ErrBadFrame is returned when a block frame is not the one encoding of a
// frame.
var ErrBadFrame = errors.New("depsky: malformed block frame")

// maxFrameLen bounds the length of b's frame, so that callers can draw its
// buffer from a pool.
func maxFrameLen(b *block) int { return 7*codec.MaxUvarintLen + len(b.KeyShare) + len(b.Payload) }

// appendFrame appends b's frame to dst.
func appendFrame(dst []byte, b *block) []byte {
	dst = codec.AppendUvarint(codec.AppendUvarint(codec.AppendVersion(dst), uint64(b.KeyX)), uint64(b.ShardIdx))
	dst = codec.AppendUvarint(codec.AppendUvarint(dst, uint64(b.ChunkIdx)), uint64(b.ChunkPlainLen))
	return codec.AppendBytes(codec.AppendBytes(dst, b.KeyShare), b.Payload)
}

// decodeBlock parses a block frame. The returned block's byte fields alias
// data.
func decodeBlock(data []byte) (*block, error) {
	d := codec.NewDecoder(data, true)
	b := &block{KeyX: byte(d.Enum(0xFF)), ShardIdx: int(d.Uvarint()), ChunkIdx: int(d.Uvarint()),
		ChunkPlainLen: int(d.Uvarint()), KeyShare: d.Bytes(), Payload: d.Bytes()}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadFrame, err)
	}
	return b, nil
}

// encodeDescriptor returns v's fields in declaration order, in a buffer
// with room for all of them.
func encodeDescriptor(v *VersionInfo) []byte {
	n := 7*codec.MaxUvarintLen + len(v.DataHash) + len(v.Tag)
	for _, row := range v.ChunkHashes {
		n += codec.MaxUvarintLen
		for _, h := range row {
			n += codec.MaxUvarintLen + len(h)
		}
	}
	b := codec.AppendString(make([]byte, 0, n), v.DataHash)
	b = codec.AppendUvarint(codec.AppendUvarint(b, uint64(v.Size)), uint64(v.Protocol))
	b = codec.AppendUvarint(codec.AppendUvarint(b, uint64(v.ChunkSize)), uint64(v.ChunkCount))
	return codec.AppendString(codec.AppendList(b, v.ChunkHashes, codec.AppendStrings), v.Tag)
}

// decodeDescriptor parses one cloud's copy of the descriptor of the version
// named hash, for a deployment of n clouds; false when it is not that.
func decodeDescriptor(data []byte, hash string, n int) (VersionInfo, bool) {
	d := codec.NewDecoder(data, false)
	v := VersionInfo{DataHash: d.Str(), Size: int(d.Uvarint()), Protocol: Protocol(d.Enum(uint64(ProtocolA))),
		ChunkSize: int(d.Uvarint()), ChunkCount: int(d.Uvarint()),
		ChunkHashes: codec.List(&d, (*codec.Decoder).Strings), Tag: d.Str()}
	if d.Finish() != nil || v.DataHash != hash || !v.validChunking() || !validTag(v.Tag) {
		return VersionInfo{}, false
	}
	for _, row := range v.ChunkHashes {
		if len(row) != n {
			return VersionInfo{}, false
		}
		for _, h := range row {
			if !validHash(h) {
				return VersionInfo{}, false
			}
		}
	}
	return v, true
}

// descObject returns the descriptor object holding desc and frame, in a
// buffer from the stream pool.
func descObject(desc, frame []byte) []byte {
	b := stream.Buffers.Get(3*codec.MaxUvarintLen + len(desc) + len(frame))[:0]
	return codec.AppendBytes(codec.AppendBytes(codec.AppendVersion(b), desc), frame)
}

// splitDescObject returns the descriptor and the frame a descriptor object
// holds, aliasing data; false when data is not one.
func splitDescObject(data []byte) (desc, frame []byte, ok bool) {
	d := codec.NewDecoder(data, true)
	desc, frame = d.Bytes(), d.Bytes()
	if d.Finish() != nil {
		return nil, nil, false
	}
	return desc, frame, true
}
