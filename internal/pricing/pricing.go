// Package pricing holds per-cloud price tables and converts the byte/object
// footprints metered elsewhere (depsky.Footprint, storage.VersionFootprint,
// cloud.Usage) into dollar estimates.
//
// The paper's cost argument (§4.5) is that a cloud-of-clouds file system is
// only practical if its monetary cost stays comparable to a single cloud:
// DepSky-CA's erasure coding keeps the storage overhead at ~(n-f)/(f+1)x
// instead of nx, and the preferred-quorum machinery keeps the request and
// ingress overhead near the quorum size instead of n. Those arguments are
// about dollars, not bytes — and providers price the axes very differently
// (storage per GB-month, requests per call, egress per GB, ingress usually
// free). This package is the missing conversion layer: a Table of per-cloud
// Rates with realistic bundled defaults for the simulated providers, and the
// arithmetic that turns footprint axes and metered usage into the dollars the
// cost model, the garbage collector and the cost reports quote.
//
// All dollar amounts are plain float64 US dollars. Estimates are planning
// numbers, not invoices: providers bill with minimums, tiers and regional
// variations this table deliberately flattens.
package pricing

import "scfs/internal/cloud"

// GB is the unit the per-GB rates are quoted against.
const GB = float64(1 << 30)

// Rates is the price card of one cloud provider.
type Rates struct {
	// StorageGBMonth is the $/GB-month charge for resident bytes.
	StorageGBMonth float64
	// PutRequest, GetRequest, DeleteRequest and ListRequest are the $ fees
	// charged per API call (providers quote them per 1k or 10k requests;
	// these are the per-call equivalents).
	PutRequest    float64
	GetRequest    float64
	DeleteRequest float64
	ListRequest   float64
	// EgressPerGB is the $/GB charge for outbound (download) traffic.
	// IngressPerGB is the inbound equivalent — zero at every major provider,
	// kept as a field so asymmetric private deployments can model it.
	EgressPerGB  float64
	IngressPerGB float64
}

// IsZero reports whether the rate card is entirely unset.
func (r Rates) IsZero() bool { return r == Rates{} }

// UsageCost prices one account's metered consumption (cloud.Usage) at these
// rates: request fees, transfer charges, and the storage integrated by the
// meter (ByteHours, converted to GB-months).
func (r Rates) UsageCost(u cloud.Usage) float64 {
	const hoursPerMonth = 730
	return float64(u.PutRequests)*r.PutRequest +
		float64(u.GetRequests)*r.GetRequest +
		float64(u.DeleteRequests)*r.DeleteRequest +
		float64(u.ListRequests)*r.ListRequest +
		float64(u.BytesIn)/GB*r.IngressPerGB +
		float64(u.BytesOut)/GB*r.EgressPerGB +
		u.ByteHours/GB/hoursPerMonth*r.StorageGBMonth
}

// Table maps provider names (cloud.ObjectStore.Provider()) to their rate
// cards. The zero Table prices everything with DefaultRates.
type Table struct {
	// ByProvider holds per-provider rate cards.
	ByProvider map[string]Rates
	// Default prices providers absent from ByProvider; when it is zero too,
	// For falls back to DefaultRates so an unconfigured table still yields
	// plausible cross-provider numbers rather than zeros.
	Default Rates
}

// For returns the rate card of one provider.
func (t Table) For(provider string) Rates {
	if r, ok := t.ByProvider[provider]; ok {
		return r
	}
	if !t.Default.IsZero() {
		return t.Default
	}
	return DefaultRates
}

// Resolve returns the rate card of every store, in order. It is how the
// cost model and the spend gauges obtain their per-cloud-index view.
func (t Table) Resolve(stores []cloud.ObjectStore) []Rates {
	out := make([]Rates, len(stores))
	for i, s := range stores {
		out[i] = t.For(s.Provider())
	}
	return out
}

// DefaultRates is the generic rate card used for providers with no entry:
// roughly the 2020s price of commodity object storage.
var DefaultRates = Rates{
	StorageGBMonth: 0.023,
	PutRequest:     5e-6, // $5.00 / 1M
	GetRequest:     4e-7, // $0.40 / 1M
	DeleteRequest:  0,    // free at every major provider
	ListRequest:    5e-6, // billed like writes
	EgressPerGB:    0.09,
}

// DefaultTable returns the bundled price table for the simulated providers
// of internal/cloudsim (the paper's four-cloud setup), keyed by their
// profile names. The numbers are realistic publicly listed prices for the
// providers' standard storage classes, flattened to one region and no
// volume tiers; they are intended to preserve the ratios between providers
// (Rackspace bills no request fees but the highest per-GB storage; Azure is
// the cheapest store; egress is 10-300x the per-request cost for medium
// objects).
func DefaultTable() Table {
	return Table{
		ByProvider: map[string]Rates{
			"amazon-s3": {
				StorageGBMonth: 0.023,
				PutRequest:     5e-6,
				GetRequest:     4e-7,
				ListRequest:    5e-6,
				EgressPerGB:    0.09,
			},
			"azure-blob": {
				StorageGBMonth: 0.0184,
				PutRequest:     6.5e-6,
				GetRequest:     5e-7,
				ListRequest:    6.5e-6,
				EgressPerGB:    0.087,
			},
			"google-storage": {
				StorageGBMonth: 0.020,
				PutRequest:     5e-6, // class A op
				GetRequest:     4e-7, // class B op
				ListRequest:    5e-6,
				EgressPerGB:    0.12,
			},
			"rackspace-files": {
				StorageGBMonth: 0.10,
				// Rackspace Cloud Files billed no per-request fees.
				EgressPerGB: 0.12,
			},
			// The zero-latency test profile is free: unit tests that meter
			// dollars opt in with explicit rates.
			"local-null": {},
		},
		Default: DefaultRates,
	}
}

// Estimate is the dollar view of one stored version's lifecycle, the
// counterpart of the byte/object axes in depsky.Footprint.
type Estimate struct {
	// StoragePerMonth is the recurring $/month for keeping the version.
	StoragePerMonth float64
	// UploadOnce is the one-time cost of writing it (PUT fees + ingress
	// across the charged clouds, including the metadata update).
	UploadOnce float64
	// ReadOnce is the cost of one whole read (GET fees + egress at the
	// clouds a read contacts).
	ReadOnce float64
	// DeleteOnce is the cost of reclaiming it (DELETE fees; deletes are
	// best-effort against all clouds).
	DeleteOnce float64
}

// Add accumulates other into e.
func (e *Estimate) Add(other Estimate) {
	e.StoragePerMonth += other.StoragePerMonth
	e.UploadOnce += other.UploadOnce
	e.ReadOnce += other.ReadOnce
	e.DeleteOnce += other.DeleteOnce
}
