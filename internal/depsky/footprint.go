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
	// Objects is how many cloud objects the version's payload occupies
	// (chunks x charged clouds); each object keeps costing a GET fee per
	// read and a DELETE fee at reclamation.
	Objects int64
	// PutRequests is the request count the version's upload was charged
	// (payload objects plus the metadata update).
	PutRequests int64
	// GetRequestsPerRead is the request count one whole read of the version
	// issues (f+1 decoding clouds per chunk for CA, one replica for A).
	GetRequestsPerRead int64
	// DeleteRequests is the request count reclaiming the version issues
	// (deletes are best-effort against all n clouds).
	DeleteRequests int64
}

// Add accumulates other into f.
func (f *Footprint) Add(other Footprint) {
	f.Bytes += other.Bytes
	f.Objects += other.Objects
	f.PutRequests += other.PutRequests
	f.GetRequestsPerRead += other.GetRequestsPerRead
	f.DeleteRequests += other.DeleteRequests
}

// VersionFootprint computes the footprint of one stored version from its
// metadata.
func (m *Manager) VersionFootprint(info VersionInfo) Footprint {
	return m.footprint(info.Protocol, int64(info.Size), info.ChunkSize)
}

// EstimateFootprint predicts the footprint a value of the given size would
// have if written now. The SCFS agent uses it to meter request-fee pressure
// for the garbage-collection trigger.
func (m *Manager) EstimateFootprint(size int64) Footprint {
	return m.footprint(m.opts.Protocol, size, m.chunkSize())
}

// chunkShape reduces the chunking of a value of size bytes to how many
// chunks hold exactly chunkSize plaintext bytes and how many the shorter
// last one holds (0: there is none) — what uploadChunks stores, so the
// per-chunk cost loops collapse to constant-time arithmetic. An empty value
// has no chunk at all.
func chunkShape(size int64, chunkSize int) (full int64, tail int) {
	if size <= 0 || chunkSize <= 0 {
		return 0, 0
	}
	return size / int64(chunkSize), int(size % int64(chunkSize))
}

// footprint charges a version of size bytes cut into chunkSize chunks under
// the protocol's dispersal: CA stores one erasure shard of each chunk's
// ciphertext on each of the preferred n-f clouds, A a full replica on all n.
func (m *Manager) footprint(protocol Protocol, size int64, chunkSize int) Footprint {
	n := int64(m.N())
	q := int64(m.QuorumSize())
	bytesFor := func(plain int) int64 {
		if protocol == ProtocolA {
			return int64(plain) * n
		}
		return int64(m.coder.ShardSize(plain+seccrypto.CiphertextOverhead)) * q
	}
	full, tail := chunkShape(size, chunkSize)
	fp := Footprint{Bytes: full * bytesFor(chunkSize)}
	chunks := full
	if tail > 0 {
		fp.Bytes += bytesFor(tail)
		chunks++
	}
	charged := q
	if protocol == ProtocolA {
		charged = n
	}
	fp.Objects = chunks * charged
	fp.PutRequests = fp.Objects + q // payload objects + the metadata quorum write
	fp.GetRequestsPerRead = chunks * int64(m.readNeed(protocol))
	fp.DeleteRequests = chunks * n
	return fp
}
