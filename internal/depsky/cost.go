package depsky

// Dollar cost model. footprint.go counts the byte and object axes of one
// stored version; this file prices them with the per-cloud rate cards of
// Options.Pricing (§4.5 of the paper argues in exactly these units: the
// cloud-of-clouds is practical because DepSky-CA's dollars stay within ~2x
// of a single cloud). Estimates charge the mean rate card across the n
// clouds — which n-f subset actually holds a version depends on the write
// hedge and the tracker state at write time, and an estimate that stable is
// worth more to the cost report and the garbage collector's reclaim figures
// than one that drifts with provider weather.

import (
	"scfs/internal/pricing"
	"scfs/internal/seccrypto"
)

// meanRates averages the rate cards across the clouds. The rates are fixed
// at construction, so New computes this once into m.mean; a GC sweep
// pricing thousands of versions reads the cached card.
func meanRates(rates []pricing.Rates) pricing.Rates {
	var sum pricing.Rates
	n := len(rates)
	if n == 0 {
		return pricing.DefaultRates
	}
	for _, r := range rates {
		sum.StorageGBMonth += r.StorageGBMonth
		sum.PutRequest += r.PutRequest
		sum.GetRequest += r.GetRequest
		sum.DeleteRequest += r.DeleteRequest
		sum.ListRequest += r.ListRequest
		sum.EgressPerGB += r.EgressPerGB
		sum.IngressPerGB += r.IngressPerGB
	}
	f := 1 / float64(n)
	sum.StorageGBMonth *= f
	sum.PutRequest *= f
	sum.GetRequest *= f
	sum.DeleteRequest *= f
	sum.ListRequest *= f
	sum.EgressPerGB *= f
	sum.IngressPerGB *= f
	return sum
}

// VersionCost prices one stored version's lifecycle from its metadata:
// recurring storage per month, the upload it already paid, what one whole
// read costs, and what reclaiming it will cost. It is the dollar companion
// of VersionFootprint and what the garbage collector reports as reclaimed.
func (m *Manager) VersionCost(info VersionInfo) pricing.Estimate {
	return m.cost(info.Protocol, int64(info.Size), info.ChunkSize)
}

// EstimateCost predicts the lifecycle dollars a value of the given size
// would cost if written now.
func (m *Manager) EstimateCost(size int64) pricing.Estimate {
	return m.cost(m.opts.Protocol, size, m.chunkSize())
}

// cost prices a version of size bytes cut into chunkSize chunks under the
// protocol's dispersal, mirroring footprint(): CA charges one erasure shard
// of each chunk's ciphertext on each of the n-f quorum clouds and f+1
// readers per chunk, A a full replica on all n clouds and one reader. The
// metadata quorum write rides along as q request fees. Constant-time
// regardless of the chunk count.
func (m *Manager) cost(protocol Protocol, size int64, chunkSize int) pricing.Estimate {
	mean := m.mean
	n := int64(m.N())
	q := int64(m.QuorumSize())
	charged, readers := q, int64(m.readNeed(protocol))
	if protocol == ProtocolA {
		charged = n
	}
	perChunk := func(plain int) pricing.Estimate {
		var stored int64 // bytes per charged cloud
		if protocol == ProtocolA {
			stored = int64(plain)
		} else {
			stored = int64(m.coder.ShardSize(plain + seccrypto.CiphertextOverhead))
		}
		return pricing.Estimate{
			StoragePerMonth: float64(charged) * mean.StorageCost(stored),
			UploadOnce:      float64(charged) * mean.PutCost(stored),
			ReadOnce:        float64(readers) * mean.GetCost(stored),
			DeleteOnce:      float64(n) * mean.DeleteRequest,
		}
	}
	full, tail := chunkShape(size, chunkSize)
	one := perChunk(chunkSize)
	est := pricing.Estimate{
		StoragePerMonth: float64(full) * one.StoragePerMonth,
		UploadOnce:      float64(full) * one.UploadOnce,
		ReadOnce:        float64(full) * one.ReadOnce,
		DeleteOnce:      float64(full) * one.DeleteOnce,
	}
	if tail > 0 {
		est.Add(perChunk(tail))
	}
	est.UploadOnce += float64(q) * mean.PutRequest // the metadata quorum write
	return est
}
