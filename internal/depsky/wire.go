package depsky

// Binary block framing.
//
// A chunk's frame on one cloud is binary: a JSON block base64-inflated the
// shard by ~33% and cost a marshal per write and an unmarshal per read. Each
// chunk of a version is encrypted, erasure-coded and framed on its own. Cloud
// i stores its frame of chunk j as "dsky/<unit>/<hash>/<tag>/c<j>", <hash>
// being the version's plaintext SHA-256 and <tag> the writer's
// (VersionInfo.Tag) — or, for a value of one chunk, inside the version's
// descriptor object (see descObject below). All integers are big-endian:
//
//	offset size field
//	0      4    magic "DSKB"
//	4      1    frame version (2)
//	5      1    protocol (0 = DepSky-CA, 1 = DepSky-A)
//	6      1    flags (bit 0: key share present)
//	7      1    keyX (secret-share evaluation point; 0 when no key share)
//	8      2    shard index
//	10     4    key share length
//	14     4    payload length
//	18     4    chunk index
//	22     4    chunk plaintext length (bytes of original data in this chunk)
//	26     …    key share bytes, then payload bytes
//
// The version byte is 2 because 1 is taken: a whole-value frame without the
// chunk coordinates, which nothing writes and which a reader rejects like
// any other unknown version.
//
// The chunk geometry and the per-cloud frame hashes live in the version's
// descriptor (VersionInfo, stored as JSON), not in the frames; integrity is not the frame's job either: a reader checks each
// frame's SHA-256 against the descriptor before decoding it. Every frame
// carries the version's key share, so a ranged read of any single chunk
// recovers the key from f+1 clouds without extra round trips. The payload is
// the erasure-coded shard of the chunk ciphertext for DepSky-CA and the full
// chunk for DepSky-A.

import (
	"encoding/binary"
	"errors"
	"fmt"

	"scfs/internal/stream"
)

const (
	wireMagic     = "DSKB"
	wireVersion   = 2
	wireHeaderLen = 26

	wireFlagKeyShare = 1 << 0
)

// ErrBadFrame is returned when a block frame fails structural validation
// (bad magic, unknown version, or inconsistent lengths).
var ErrBadFrame = errors.New("depsky: malformed block frame")

// frameLen returns the exact frame size for a block, so callers can draw
// the destination from a pool.
func frameLen(keyShareLen, payloadLen int) int {
	return wireHeaderLen + keyShareLen + payloadLen
}

// encodeFrame serializes a block into dst, which must have exactly
// frameLen(len(b.KeyShare), len(payload)) bytes. The payload is b.Shard for
// DepSky-CA and b.Full for DepSky-A.
func encodeFrame(dst []byte, p Protocol, b *block) {
	payload := b.Shard
	if p == ProtocolA {
		payload = b.Full
	}
	if len(dst) != frameLen(len(b.KeyShare), len(payload)) {
		panic(fmt.Sprintf("depsky: frame buffer is %d bytes, need %d", len(dst), frameLen(len(b.KeyShare), len(payload))))
	}
	copy(dst, wireMagic)
	dst[4] = wireVersion
	dst[5] = byte(p)
	dst[6] = 0
	dst[7] = 0
	if len(b.KeyShare) > 0 {
		dst[6] = wireFlagKeyShare
		dst[7] = b.KeyX
	}
	binary.BigEndian.PutUint16(dst[8:], uint16(b.ShardIdx))
	binary.BigEndian.PutUint32(dst[10:], uint32(len(b.KeyShare)))
	binary.BigEndian.PutUint32(dst[14:], uint32(len(payload)))
	binary.BigEndian.PutUint32(dst[18:], uint32(b.ChunkIdx))
	binary.BigEndian.PutUint32(dst[22:], uint32(b.ChunkPlainLen))
	n := copy(dst[wireHeaderLen:], b.KeyShare)
	copy(dst[wireHeaderLen+n:], payload)
}

// decodeBlock parses a block frame. The returned block's byte fields alias
// data.
func decodeBlock(data []byte) (*block, error) {
	if len(data) < wireHeaderLen {
		return nil, fmt.Errorf("%w: %d bytes, need at least %d", ErrBadFrame, len(data), wireHeaderLen)
	}
	if string(data[:4]) != wireMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadFrame)
	}
	if data[4] != wireVersion {
		return nil, fmt.Errorf("%w: unknown frame version %d", ErrBadFrame, data[4])
	}
	proto := Protocol(data[5])
	if proto != ProtocolCA && proto != ProtocolA {
		return nil, fmt.Errorf("%w: unknown protocol %d", ErrBadFrame, data[5])
	}
	flags := data[6]
	keyLen := int(binary.BigEndian.Uint32(data[10:]))
	payloadLen := int(binary.BigEndian.Uint32(data[14:]))
	if keyLen < 0 || payloadLen < 0 || wireHeaderLen+keyLen+payloadLen != len(data) {
		return nil, fmt.Errorf("%w: lengths %d+%d inconsistent with frame size %d", ErrBadFrame, keyLen, payloadLen, len(data))
	}
	b := &block{
		ShardIdx:      int(binary.BigEndian.Uint16(data[8:])),
		ChunkIdx:      int(binary.BigEndian.Uint32(data[18:])),
		ChunkPlainLen: int(binary.BigEndian.Uint32(data[22:])),
	}
	if flags&wireFlagKeyShare != 0 {
		b.KeyX = data[7]
		b.KeyShare = data[wireHeaderLen : wireHeaderLen+keyLen]
	}
	payload := data[wireHeaderLen+keyLen:]
	if proto == ProtocolA {
		b.Full = payload
	} else {
		b.Shard = payload
	}
	return b, nil
}

// A version's descriptor object on cloud i, "dsky/<unit>/<hash>/desc", holds
// the descriptor and, for a value of one chunk, cloud i's frame of it, so
// that one PUT stores both and one GET returns both: no cloud ever holds one
// write's descriptor beside another write's frame.
//
//	offset size field
//	0      4    magic "DSKD"
//	4      4    descriptor length
//	8      …    the descriptor (VersionInfo as JSON), then the frame (none
//	            unless the value is one chunk)
const (
	descMagic     = "DSKD"
	descHeaderLen = 8
)

// descObject returns the descriptor object holding desc and frame, in a
// buffer from the stream pool.
func descObject(desc, frame []byte) []byte {
	b := stream.Buffers.Get(descHeaderLen + len(desc) + len(frame))
	copy(b, descMagic)
	binary.BigEndian.PutUint32(b[4:], uint32(len(desc)))
	copy(b[descHeaderLen+copy(b[descHeaderLen:], desc):], frame)
	return b
}

// splitDescObject returns the descriptor and the frame a descriptor object
// holds, aliasing data; false when data is not one.
func splitDescObject(data []byte) (desc, frame []byte, ok bool) {
	if len(data) < descHeaderLen || string(data[:4]) != descMagic {
		return nil, nil, false
	}
	n := binary.BigEndian.Uint32(data[4:])
	if uint64(n) > uint64(len(data)-descHeaderLen) {
		return nil, nil, false
	}
	return data[descHeaderLen : descHeaderLen+int(n)], data[descHeaderLen+int(n):], true
}
