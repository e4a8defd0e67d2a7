package depsky

// Cost accounting. The paper's cost analysis (§4.5) charges a version by
// its storage footprint on the preferred quorum; the chunked layout adds a
// second axis the byte count misses entirely: each chunk is its own cloud
// object, so a 64 MiB version creates 64x as many objects — and pays 64x
// the per-request fees on every write, read and delete — as a value of one
// chunk. Footprint folds both axes together so the garbage collector (and
// any capacity planner) can weigh "many chunks" against "many bytes" instead
// of seeing only bytes.

import "scfs/internal/seccrypto"

// Footprint describes the cloud-side cost of one stored version across the
// cloud-of-clouds: resident bytes, object count, and the request fees its
// lifecycle incurs.
type Footprint struct {
	// Bytes is the storage the version occupies, charged per the paper's
	// cost model: the preferred write quorum of n-f clouds for DepSky-CA
	// shards, all n clouds for DepSky-A replicas.
	Bytes int64
	// Objects is how many cloud objects the version occupies on the charged
	// clouds: its chunks and its descriptor object, which holds a value of
	// at most one chunk itself. Each object keeps costing a GET fee per read
	// and a DELETE fee at reclamation.
	Objects int64
	// PutRequests is the request count the version's upload was charged,
	// one per object.
	PutRequests int64
	// GetRequestsPerRead is the request count one whole read of the version
	// issues: f+1 descriptor objects, then f+1 decoding clouds per chunk of
	// a larger value for CA, one replica for A.
	GetRequestsPerRead int64
	// DeleteRequests is the request count reclaiming the version issues
	// (deletes are best-effort against all n clouds).
	DeleteRequests int64
}

// VersionFootprint computes the footprint of one stored version from its
// descriptor.
func (m *Manager) VersionFootprint(info VersionInfo) Footprint {
	return m.footprint(info.Protocol, int64(info.Size), info.ChunkSize)
}

// EstimateFootprint predicts the footprint a value of the given size would
// have if written now. The SCFS agent uses it to meter request-fee pressure
// for the garbage-collection trigger.
func (m *Manager) EstimateFootprint(size int64) Footprint {
	return m.footprint(m.opts.Protocol, size, m.chunkSize())
}

// footprint charges a version of size bytes cut into chunkSize chunks under
// the protocol's dispersal: CA stores one erasure shard of each chunk's
// ciphertext on each of the preferred n-f clouds, A a full replica on all n.
// The chunks but the last hold chunkSize bytes each, so it is constant-time
// arithmetic; an empty value has no chunk at all.
func (m *Manager) footprint(protocol Protocol, size int64, chunkSize int) Footprint {
	n, charged := int64(m.N()), int64(m.QuorumSize())
	if protocol == ProtocolA {
		charged = n
	}
	bytesFor := func(plain int64) int64 {
		if protocol == ProtocolA {
			return plain * charged
		}
		return int64(m.coder.ShardSize(int(plain)+seccrypto.CiphertextOverhead)) * charged
	}
	var fp Footprint
	chunks := int64(0)
	if size > 0 && chunkSize > 0 {
		full, tail := size/int64(chunkSize), size%int64(chunkSize)
		fp.Bytes, chunks = full*bytesFor(int64(chunkSize)), full
		if tail > 0 {
			fp.Bytes += bytesFor(tail)
			chunks++
		}
	}
	objects := chunks + 1 // the chunks and the descriptor object
	if chunks <= 1 {
		objects = 1 // which holds a value of one chunk
	}
	fp.Objects = objects * charged
	fp.PutRequests = fp.Objects
	fp.GetRequestsPerRead = int64(m.witnessSize()) + (objects-1)*int64(m.readNeed(protocol))
	fp.DeleteRequests = objects * n
	return fp
}
