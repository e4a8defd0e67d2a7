package telemetry

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync/atomic"
)

// TraceID identifies one trace: 16 bytes, hex encoded in the event log and
// the debug server's trace listings, and kept in its compact form (Short)
// as a histogram exemplar — the shape W3C Trace Context gives trace-id. The
// zero value is "no ID" (W3C reserves the all-zero trace-id as invalid).
type TraceID [16]byte

// Process-unique ID generation: the high half is fixed at process start
// (random when the OS provides it), the low half is a counter. NewTraceID
// is then two loads and an atomic add — no allocation, cheap enough for
// every traced operation.
var (
	traceIDHi uint64
	traceIDLo atomic.Uint64
)

func init() {
	var b [16]byte
	if _, err := rand.Read(b[:]); err == nil {
		traceIDHi = binary.BigEndian.Uint64(b[:8])
		traceIDLo.Store(binary.BigEndian.Uint64(b[8:]))
	}
	if traceIDHi == 0 {
		traceIDHi = 0x5cf5<<32 | 0x1d
	}
}

// NewTraceID returns a fresh process-unique trace ID.
func NewTraceID() TraceID {
	var id TraceID
	binary.BigEndian.PutUint64(id[:8], traceIDHi)
	binary.BigEndian.PutUint64(id[8:], traceIDLo.Add(1))
	return id
}

// IsZero reports whether the ID is unset (the invalid all-zero ID).
func (id TraceID) IsZero() bool { return id == TraceID{} }

// Short returns the low 8 bytes of the ID — the compact form histogram
// exemplars store (0 only for the zero ID, modulo a vanishing counter
// coincidence).
func (id TraceID) Short() uint64 { return binary.BigEndian.Uint64(id[8:]) }

// String returns the 32-character lowercase hex form.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }
