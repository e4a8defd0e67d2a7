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

import "scfs/internal/pricing"

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

// VersionCost prices one stored version's lifecycle from its descriptor:
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

// cost prices the footprint of a version of size bytes cut into chunkSize
// chunks with the mean rate card: every charged byte is stored and was
// uploaded once, a whole read downloads readNeed of each chunk's charged
// copies, and every request pays its fee. Reclaiming a version also reads its
// descriptor objects and, if it has chunk objects, lists its prefix on every
// cloud. Constant-time regardless of the chunk count.
func (m *Manager) cost(protocol Protocol, size int64, chunkSize int) pricing.Estimate {
	mean, fp := m.mean, m.footprint(protocol, size, chunkSize)
	n, charged := float64(m.N()), float64(m.QuorumSize())
	if protocol == ProtocolA {
		charged = n
	}
	bytes, read := float64(fp.Bytes)/pricing.GB, float64(fp.Bytes)/pricing.GB*float64(m.readNeed(protocol))/charged
	list := 0.0
	if size > int64(chunkSize) {
		list = mean.ListRequest
	}
	return pricing.Estimate{
		StoragePerMonth: bytes * mean.StorageGBMonth,
		UploadOnce:      float64(fp.PutRequests)*mean.PutRequest + bytes*mean.IngressPerGB,
		ReadOnce:        float64(fp.GetRequestsPerRead)*mean.GetRequest + read*mean.EgressPerGB,
		DeleteOnce:      float64(fp.DeleteRequests)*mean.DeleteRequest + n*(mean.GetRequest+list),
	}
}
