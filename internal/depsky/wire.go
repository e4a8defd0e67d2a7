package depsky

// Binary block framing.
//
// The per-cloud block of a data-unit version used to be a JSON object, which
// base64-inflates the erasure shard by ~33% and burns CPU marshaling on every
// write and unmarshaling on every read. Blocks are binary payloads with a
// handful of small fields, so they are framed with a compact length-prefixed
// binary envelope instead. The small metadata objects remain JSON: they are
// human-inspectable and off the hot path.
//
// There is one frame layout. A version is cut into fixed-size plaintext
// chunks (one for a value of at most a chunk, none for an empty one); each
// chunk is encrypted, erasure-coded and framed independently, and each cloud
// stores one frame per chunk under the object name
// "<prefix>dsky/<unit>/<id>/c<chunk>". <id> is the version's VersionInfo.ID —
// 32 lowercase hex digits the writer draws at random — not its number: the
// number is only known once the unit's metadata has been read, and names
// keyed by the ID let a write upload its frames while that read is still in
// flight (Manager.writeVersion: two cloud rounds, metadata GET beside the
// upload, then the metadata PUT). All integers are big-endian:
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
// The chunk count, the chunk size and the per-chunk per-cloud frame hashes
// live in the version metadata (VersionInfo.ChunkSize, ChunkCount and
// ChunkHashes), not in the frames: the writer does not know the total chunk
// count when the first frames are uploaded, and readers always hold the
// metadata before they touch a frame. Every chunk frame carries the version
// key share so a ranged read of any single chunk can recover the encryption
// key from f+1 clouds without extra round trips.
//
// The payload is the erasure-coded shard of the chunk ciphertext for
// DepSky-CA and the full (replicated) chunk for DepSky-A. Integrity is not
// the frame's job: the SHA-256 of the whole frame is recorded in the version
// metadata (VersionInfo.ChunkHashes) and checked before decoding, exactly as
// it was for the JSON envelope.

import (
	"encoding/binary"
	"errors"
	"fmt"
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
